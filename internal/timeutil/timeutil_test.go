package timeutil

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestAlignUTC(t *testing.T) {
	tests := []struct {
		name   string
		local  time.Time
		offset int // minutes
		want   time.Time
	}{
		{
			name:   "no offset",
			local:  time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC),
			offset: 0,
			want:   time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC),
		},
		{
			name:   "EST forum clock",
			local:  time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC),
			offset: -300,
			want:   time.Date(2017, 6, 1, 17, 0, 0, 0, time.UTC),
		},
		{
			name:   "CET forum clock crosses midnight",
			local:  time.Date(2017, 6, 1, 0, 30, 0, 0, time.UTC),
			offset: 60,
			want:   time.Date(2017, 5, 31, 23, 30, 0, 0, time.UTC),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AlignUTC(tt.local, tt.offset); !got.Equal(tt.want) {
				t.Errorf("AlignUTC = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIsWeekend(t *testing.T) {
	// 2017-07-01 is a Saturday.
	sat := time.Date(2017, 7, 1, 10, 0, 0, 0, time.UTC)
	sun := sat.AddDate(0, 0, 1)
	mon := sat.AddDate(0, 0, 2)
	if !IsWeekend(sat) || !IsWeekend(sun) {
		t.Error("Saturday/Sunday must be weekend")
	}
	if IsWeekend(mon) {
		t.Error("Monday must not be weekend")
	}
}

func TestUSHolidays2017(t *testing.T) {
	cal := USHolidays(2017)
	want := []struct {
		m    time.Month
		d    int
		name string
	}{
		{time.January, 2, "New Year's Day"}, // Jan 1 2017 is a Sunday → observed Monday
		{time.January, 16, "Martin Luther King Jr. Day"},
		{time.February, 20, "Washington's Birthday"},
		{time.May, 29, "Memorial Day"},
		{time.July, 4, "Independence Day"},
		{time.September, 4, "Labor Day"},
		{time.October, 9, "Columbus Day"},
		{time.November, 10, "Veterans Day"}, // Nov 11 2017 is a Saturday → observed Friday
		{time.November, 23, "Thanksgiving Day"},
		{time.December, 25, "Christmas Day"},
	}
	for _, w := range want {
		day := time.Date(2017, w.m, w.d, 12, 0, 0, 0, time.UTC)
		name, ok := cal.Name(day)
		if !ok {
			t.Errorf("%v %d should be a holiday (%s)", w.m, w.d, w.name)
			continue
		}
		if name != w.name {
			t.Errorf("%v %d = %q, want %q", w.m, w.d, name, w.name)
		}
	}
	if cal.Len() != len(want) {
		t.Errorf("calendar has %d holidays, want %d", cal.Len(), len(want))
	}
	if cal.Contains(time.Date(2017, 3, 15, 12, 0, 0, 0, time.UTC)) {
		t.Error("ordinary day flagged as holiday")
	}
}

func TestHolidayCalendarZeroValues(t *testing.T) {
	var nilCal *HolidayCalendar
	if nilCal.Contains(time.Now()) {
		t.Error("nil calendar must contain nothing")
	}
	if nilCal.Len() != 0 {
		t.Error("nil calendar length must be 0")
	}
	var zero HolidayCalendar
	zero.Add(2020, time.May, 1, "May Day")
	if !zero.Contains(time.Date(2020, 5, 1, 3, 0, 0, 0, time.UTC)) {
		t.Error("Add on zero-value calendar must work")
	}
}

func TestNthAndLastWeekday(t *testing.T) {
	// Third Monday of January 2017 is the 16th.
	if got := nthWeekday(2017, time.January, time.Monday, 3); got != 16 {
		t.Errorf("nthWeekday = %d, want 16", got)
	}
	// Last Monday of May 2017 is the 29th.
	if got := lastWeekday(2017, time.May, time.Monday); got != 29 {
		t.Errorf("lastWeekday = %d, want 29", got)
	}
	// First Thursday of June 2017 is the 1st.
	if got := nthWeekday(2017, time.June, time.Thursday, 1); got != 1 {
		t.Errorf("nthWeekday = %d, want 1", got)
	}
}

func TestObservedHolidaysShift(t *testing.T) {
	// July 4 2020 is a Saturday → observed Friday July 3.
	cal := USHolidays(2020)
	if !cal.Contains(time.Date(2020, 7, 3, 12, 0, 0, 0, time.UTC)) {
		t.Error("Saturday holiday must be observed on Friday")
	}
	if cal.Contains(time.Date(2020, 7, 4, 12, 0, 0, 0, time.UTC)) {
		t.Error("actual Saturday date must not be listed when observed Friday")
	}
	// July 4 2021 is a Sunday → observed Monday July 5.
	cal21 := USHolidays(2021)
	if !cal21.Contains(time.Date(2021, 7, 5, 12, 0, 0, 0, time.UTC)) {
		t.Error("Sunday holiday must be observed on Monday")
	}
}

// TestHolidayCalendarJSONRoundTrip: a calendar is a date → name object with
// its keys in date order, and reads back to the same days under the same
// names; nil stays nil and empty stays empty.
func TestHolidayCalendarJSONRoundTrip(t *testing.T) {
	type holder struct{ Cal *HolidayCalendar }
	roundTrip := func(in *HolidayCalendar) ([]byte, *HolidayCalendar) {
		t.Helper()
		b, err := json.Marshal(holder{in})
		if err != nil {
			t.Fatal(err)
		}
		var out holder
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		return b, out.Cal
	}
	if b, out := roundTrip(nil); string(b) != `{"Cal":null}` || out != nil {
		t.Errorf("nil calendar: %s reads back as %v", b, out)
	}
	if b, out := roundTrip(NewHolidayCalendar()); string(b) != `{"Cal":{}}` || out == nil || out.Len() != 0 {
		t.Errorf("empty calendar: %s reads back as %v", b, out)
	}

	cal := USHolidays(2017)
	cal.Add(2016, time.December, 26, "Boxing Day")
	b, out := roundTrip(cal)
	const head = `{"Cal":{"2016-12-26":"Boxing Day","2017-01-02":"New Year's Day","2017-01-16":"Martin Luther King Jr. Day",`
	if !strings.HasPrefix(string(b), head) {
		t.Errorf("encoded as %s, want dates in order from %s", b, head)
	}
	if out.Len() != cal.Len() {
		t.Fatalf("%d days read back, want %d", out.Len(), cal.Len())
	}
	for d := time.Date(2016, 12, 1, 12, 0, 0, 0, time.UTC); d.Year() < 2018; d = d.AddDate(0, 0, 1) {
		gn, gok := out.Name(d)
		wn, wok := cal.Name(d)
		if gn != wn || gok != wok {
			t.Errorf("%s reads back as %q (%v), want %q (%v)", d.Format(time.DateOnly), gn, gok, wn, wok)
		}
	}
	if again, _ := roundTrip(out); string(again) != string(b) {
		t.Errorf("encoded again as %s, want %s", again, b)
	}

	if _, err := json.Marshal(holder{func() *HolidayCalendar {
		c := NewHolidayCalendar()
		c.Add(2017, time.February, 30, "no such day")
		return c
	}()}); err == nil {
		t.Error("a day that is no calendar day encoded without error")
	}
	for _, bad := range []string{`{"2017-13-01":"x"}`, `{"July 4":"x"}`, `["2017-07-04"]`} {
		var c HolidayCalendar
		if err := json.Unmarshal([]byte(bad), &c); err == nil {
			t.Errorf("%s read as a calendar of %d days", bad, c.Len())
		}
	}
}
