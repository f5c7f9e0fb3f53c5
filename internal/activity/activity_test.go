package activity

import (
	"errors"
	"math"
	"testing"
	"time"

	"darklight/internal/timeutil"
)

// ts builds n weekday timestamps at the given UTC hour, spread over
// distinct days starting 2017-01-02 (a Monday).
func weekdayTimestamps(n, hour int) []time.Time {
	out := make([]time.Time, 0, n)
	day := time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)
	for len(out) < n {
		if !timeutil.IsWeekend(day) {
			out = append(out, time.Date(day.Year(), day.Month(), day.Day(), hour, 15, 0, 0, time.UTC))
		}
		day = day.AddDate(0, 0, 1)
	}
	return out
}

func TestBuildSingleHourProfile(t *testing.T) {
	p, err := Build(weekdayTimestamps(40, 14), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Samples != 40 {
		t.Errorf("Samples = %d", p.Samples)
	}
	if p.Bins[14] != 1 {
		t.Errorf("Bins[14] = %v, want 1", p.Bins[14])
	}
	if p.Entropy() != 0 {
		t.Errorf("single-hour entropy = %v, want 0", p.Entropy())
	}
}

func TestBinaryPerDayHour(t *testing.T) {
	// Many posts within ONE (day, hour) bin count once — eq. (1)'s a_u is
	// binary.
	base := time.Date(2017, 3, 1, 10, 0, 0, 0, time.UTC)
	var stamps []time.Time
	for i := 0; i < 50; i++ {
		stamps = append(stamps, base.Add(time.Duration(i)*time.Second))
	}
	// Plus one post in another hour on another day.
	stamps = append(stamps, time.Date(2017, 3, 2, 20, 0, 0, 0, time.UTC))
	p, err := Build(stamps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.ActiveBins != 2 {
		t.Fatalf("ActiveBins = %d, want 2", p.ActiveBins)
	}
	if p.Bins[10] != 0.5 || p.Bins[20] != 0.5 {
		t.Errorf("bins = %v / %v, want 0.5 each", p.Bins[10], p.Bins[20])
	}
}

func TestMinTimestamps(t *testing.T) {
	_, err := Build(weekdayTimestamps(29, 9), Options{})
	if !errors.Is(err, ErrInsufficientTimestamps) {
		t.Errorf("err = %v, want ErrInsufficientTimestamps", err)
	}
	if _, err := Build(weekdayTimestamps(30, 9), Options{}); err != nil {
		t.Errorf("30 timestamps must suffice: %v", err)
	}
	// Override.
	if _, err := Build(weekdayTimestamps(5, 9), Options{MinTimestamps: 5}); err != nil {
		t.Errorf("override failed: %v", err)
	}
}

func TestWeekendExclusion(t *testing.T) {
	stamps := weekdayTimestamps(30, 9)
	// Add 10 Saturday posts at hour 23.
	sat := time.Date(2017, 1, 7, 23, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		stamps = append(stamps, sat.AddDate(0, 0, 7*i))
	}
	p, err := Build(stamps, Options{ExcludeWeekends: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Bins[23] != 0 {
		t.Error("weekend posts must be excluded")
	}
	if p.Samples != 30 {
		t.Errorf("Samples = %d, want 30", p.Samples)
	}
	// Without exclusion they count.
	p2, _ := Build(stamps, Options{})
	if p2.Bins[23] == 0 {
		t.Error("weekend posts must count when exclusion is off")
	}
}

func TestHolidayExclusion(t *testing.T) {
	opts := PaperOptions(2017)
	july4 := time.Date(2017, 7, 4, 12, 0, 0, 0, time.UTC) // Tuesday, holiday
	// 40 weekdays: a couple (Jan 2, Jan 16) are themselves 2017 holidays
	// and get excluded, which is fine — enough remain.
	stamps := append(weekdayTimestamps(40, 9), july4)
	p, err := Build(stamps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bins[12] != 0 {
		t.Error("holiday posts must be excluded")
	}
}

func TestUTCAlignment(t *testing.T) {
	// Forum clock is UTC-5: local 20:00 is 01:00 UTC next day.
	local := weekdayTimestamps(35, 20)
	p, err := Build(local, Options{ForumUTCOffsetMinutes: -300})
	if err != nil {
		t.Fatal(err)
	}
	if p.Bins[1] != 1 {
		t.Errorf("aligned bin = %v, want all mass at hour 1", p.Bins)
	}
}

func TestProfileVectorAndCosine(t *testing.T) {
	a, _ := Build(weekdayTimestamps(30, 9), Options{})
	b, _ := Build(weekdayTimestamps(30, 9), Options{})
	c, _ := Build(weekdayTimestamps(30, 21), Options{})
	if got := Cosine(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical profiles cosine = %v", got)
	}
	if got := Cosine(a, c); got != 0 {
		t.Errorf("disjoint profiles cosine = %v", got)
	}
	if a.Vector().Len() != 1 {
		t.Errorf("vector entries = %d", a.Vector().Len())
	}
}

func TestProfileSumsToOne(t *testing.T) {
	stamps := append(weekdayTimestamps(20, 9), weekdayTimestamps(20, 15)...)
	p, err := Build(stamps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range p.Bins {
		sum += b
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("profile sums to %v", sum)
	}
}

func TestUniformEntropy(t *testing.T) {
	var stamps []time.Time
	day := time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 24; h++ {
		stamps = append(stamps, time.Date(2017, 1, 2+h/24, h, 0, 0, 0, time.UTC))
	}
	for len(stamps) < 48 { // two full uniform days
		day = day.AddDate(0, 0, 1)
		h := len(stamps) % 24
		stamps = append(stamps, time.Date(day.Year(), day.Month(), day.Day(), h, 0, 0, 0, time.UTC))
	}
	p, err := Build(stamps, Options{MinTimestamps: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log2(24)
	if math.Abs(p.Entropy()-want) > 0.01 {
		t.Errorf("uniform entropy = %v, want %v", p.Entropy(), want)
	}
}

func TestPaperOptions(t *testing.T) {
	opts := PaperOptions(2017, 2018)
	if !opts.ExcludeWeekends {
		t.Error("paper options must exclude weekends")
	}
	if opts.Holidays.Len() != 20 {
		t.Errorf("two years of holidays = %d entries, want 20", opts.Holidays.Len())
	}
}
