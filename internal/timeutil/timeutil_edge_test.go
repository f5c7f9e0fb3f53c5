package timeutil

import (
	"testing"
	"time"
)

// The paper's activity profiles (§III-C, eq. 1) bin posts by UTC (day,
// hour); these tests pin the calendar's edges — year rollover and inputs
// carrying a non-UTC zone. The bins' own edges are activity's tests.

func TestAlignUTCYearRollover(t *testing.T) {
	// A forum clock running at UTC+1: a post stamped 00:30 on Jan 1 2018
	// forum-local actually happened at 23:30 on Dec 31 2017 UTC.
	local := time.Date(2018, 1, 1, 0, 30, 0, 0, time.UTC)
	got := AlignUTC(local, 60)
	want := time.Date(2017, 12, 31, 23, 30, 0, 0, time.UTC)
	if !got.Equal(want) {
		t.Errorf("AlignUTC = %v, want %v", got, want)
	}
}

func TestWeekendAroundYearRollover(t *testing.T) {
	// Dec 31 2016 (Sat) and Jan 1 2017 (Sun) straddle the year boundary
	// as a weekend; Jan 2 2017 (Mon) is a weekday again.
	if !IsWeekend(time.Date(2016, 12, 31, 12, 0, 0, 0, time.UTC)) {
		t.Error("Sat Dec 31 2016 must be weekend")
	}
	if !IsWeekend(time.Date(2017, 1, 1, 12, 0, 0, 0, time.UTC)) {
		t.Error("Sun Jan 1 2017 must be weekend")
	}
	if IsWeekend(time.Date(2017, 1, 2, 12, 0, 0, 0, time.UTC)) {
		t.Error("Mon Jan 2 2017 must not be weekend")
	}
}

func TestIsWeekendNonUTCInput(t *testing.T) {
	// 23:00 Sunday in UTC-3 is 02:00 Monday UTC: exclusion must key on
	// the UTC weekday or profiles disagree across machines.
	sundayLocal := time.Date(2017, 7, 2, 23, 0, 0, 0, time.FixedZone("BRT", -3*3600))
	if sundayLocal.Weekday() != time.Sunday {
		t.Fatal("fixture must be a local Sunday")
	}
	if IsWeekend(sundayLocal) {
		t.Error("local Sunday that is UTC Monday must not count as weekend")
	}
	// The mirror case: 01:00 Monday in UTC+3 is 22:00 Sunday UTC.
	mondayLocal := time.Date(2017, 7, 3, 1, 0, 0, 0, time.FixedZone("MSK", 3*3600))
	if mondayLocal.Weekday() != time.Monday {
		t.Fatal("fixture must be a local Monday")
	}
	if !IsWeekend(mondayLocal) {
		t.Error("local Monday that is UTC Sunday must count as weekend")
	}
}

func TestNewYearObservedInPreviousYear(t *testing.T) {
	// Jan 1 2022 is a Saturday, so the federal observance shifts to
	// Friday Dec 31 2021 — the calendar for 2022 must reach back across
	// the rollover into the previous calendar year.
	cal := USHolidays(2022)
	if !cal.Contains(time.Date(2021, 12, 31, 12, 0, 0, 0, time.UTC)) {
		t.Error("New Year's Day 2022 must be observed Fri Dec 31 2021")
	}
	if cal.Contains(time.Date(2022, 1, 1, 12, 0, 0, 0, time.UTC)) {
		t.Error("the Saturday itself must not be listed when observed earlier")
	}
	// A rollover-spanning exclusion therefore needs both years' calendars:
	// 2021's own list knows nothing about the shifted 2022 observance.
	if USHolidays(2021).Contains(time.Date(2021, 12, 31, 12, 0, 0, 0, time.UTC)) {
		t.Error("USHolidays(2021) must not claim the 2022 observance")
	}
}

func TestHolidayContainsNonUTCInput(t *testing.T) {
	cal := USHolidays(2017)
	// 20:00 July 4 in UTC-10 is 06:00 July 5 UTC — not the holiday's UTC
	// calendar day, so it must not be excluded.
	zoned := time.Date(2017, 7, 4, 20, 0, 0, 0, time.FixedZone("HST", -10*3600))
	if cal.Contains(zoned) {
		t.Error("instant on UTC July 5 must not match the July 4 holiday")
	}
	// 20:00 July 3 in UTC-10 is 06:00 July 4 UTC — that one is excluded.
	zonedEve := time.Date(2017, 7, 3, 20, 0, 0, 0, time.FixedZone("HST", -10*3600))
	if !cal.Contains(zonedEve) {
		t.Error("instant on UTC July 4 must match the holiday regardless of zone")
	}
}
