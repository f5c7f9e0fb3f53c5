// Package timeutil provides the calendar arithmetic the daily-activity
// profile of the paper depends on: UTC alignment of forum-local timestamps,
// weekend detection, and a US public-holiday calendar (the datasets of the
// paper are from 2017 and dominated by North-American users; §IV-B excludes
// weekends and holidays because users change their habits on those days).
package timeutil

import (
	"encoding/json"
	"fmt"
	"time"
)

// AlignUTC converts a forum-local timestamp to UTC given the forum's fixed
// UTC offset in minutes. Forums in the paper report times in their own
// time zone; eq. (1) profiles are only comparable after alignment.
func AlignUTC(t time.Time, offsetMinutes int) time.Time {
	return t.Add(-time.Duration(offsetMinutes) * time.Minute).UTC()
}

// IsWeekend reports whether the (UTC) timestamp falls on Saturday or Sunday.
func IsWeekend(t time.Time) bool {
	wd := t.UTC().Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// dateKey is a calendar day, comparable.
type dateKey struct {
	y int
	m time.Month
	d int
}

func keyOf(t time.Time) dateKey {
	u := t.UTC()
	return dateKey{u.Year(), u.Month(), u.Day()}
}

// HolidayCalendar is a set of calendar days to exclude from activity
// profiles. The zero value is an empty calendar.
type HolidayCalendar struct {
	days map[dateKey]string
}

// NewHolidayCalendar returns an empty calendar.
func NewHolidayCalendar() *HolidayCalendar {
	return &HolidayCalendar{days: make(map[dateKey]string)}
}

// Add marks a day as a holiday with a descriptive name.
func (c *HolidayCalendar) Add(year int, month time.Month, day int, name string) {
	if c.days == nil {
		c.days = make(map[dateKey]string)
	}
	c.days[dateKey{year, month, day}] = name
}

// Contains reports whether the timestamp's UTC calendar day is a holiday.
func (c *HolidayCalendar) Contains(t time.Time) bool {
	if c == nil || c.days == nil {
		return false
	}
	_, ok := c.days[keyOf(t)]
	return ok
}

// Name returns the holiday name for the day, if any.
func (c *HolidayCalendar) Name(t time.Time) (string, bool) {
	if c == nil || c.days == nil {
		return "", false
	}
	n, ok := c.days[keyOf(t)]
	return n, ok
}

// Len returns the number of holiday days in the calendar.
func (c *HolidayCalendar) Len() int {
	if c == nil {
		return 0
	}
	return len(c.days)
}

// MarshalJSON writes the calendar as an object from date ("2006-01-02") to
// holiday name. encoding/json writes its keys sorted, so equal calendars
// encode to equal bytes. A day Add was given that is no calendar day, or
// one whose year is not four digits, is an error: it would not read back.
func (c *HolidayCalendar) MarshalJSON() ([]byte, error) {
	if c == nil {
		return []byte("null"), nil
	}
	days := make(map[string]string, len(c.days))
	for k, name := range c.days {
		t := time.Date(k.y, k.m, k.d, 12, 0, 0, 0, time.UTC)
		if keyOf(t) != k || k.y < 1 || k.y > 9999 {
			return nil, fmt.Errorf("timeutil: holiday %q on %d-%d-%d: not a calendar day", name, k.y, k.m, k.d)
		}
		days[t.Format(time.DateOnly)] = name
	}
	return json.Marshal(days)
}

// UnmarshalJSON reads what MarshalJSON writes.
func (c *HolidayCalendar) UnmarshalJSON(b []byte) error {
	var days map[string]string
	if err := json.Unmarshal(b, &days); err != nil {
		return err
	}
	c.days = make(map[dateKey]string, len(days))
	for date, name := range days {
		t, err := time.Parse(time.DateOnly, date)
		if err != nil {
			return fmt.Errorf("timeutil: holiday %q: %w", name, err)
		}
		c.days[keyOf(t)] = name
	}
	return nil
}

// USHolidays returns the federal US holidays (observed dates) for the given
// year, computed from the statutory rules. This covers the years the
// paper's datasets span without embedding a static table per year.
func USHolidays(year int) *HolidayCalendar {
	c := NewHolidayCalendar()
	add := func(m time.Month, d int, name string) { c.Add(year, m, d, name) }

	// Fixed-date holidays, shifted to the observed weekday when they land
	// on a weekend (Saturday → Friday before, Sunday → Monday after).
	observed := func(m time.Month, d int, name string) {
		t := time.Date(year, m, d, 12, 0, 0, 0, time.UTC)
		switch t.Weekday() {
		case time.Saturday:
			t = t.AddDate(0, 0, -1)
		case time.Sunday:
			t = t.AddDate(0, 0, 1)
		}
		c.Add(t.Year(), t.Month(), t.Day(), name)
	}
	observed(time.January, 1, "New Year's Day")
	observed(time.July, 4, "Independence Day")
	observed(time.November, 11, "Veterans Day")
	observed(time.December, 25, "Christmas Day")

	// Nth-weekday holidays.
	add(time.January, nthWeekday(year, time.January, time.Monday, 3), "Martin Luther King Jr. Day")
	add(time.February, nthWeekday(year, time.February, time.Monday, 3), "Washington's Birthday")
	add(time.May, lastWeekday(year, time.May, time.Monday), "Memorial Day")
	add(time.September, nthWeekday(year, time.September, time.Monday, 1), "Labor Day")
	add(time.October, nthWeekday(year, time.October, time.Monday, 2), "Columbus Day")
	add(time.November, nthWeekday(year, time.November, time.Thursday, 4), "Thanksgiving Day")
	return c
}

// nthWeekday returns the day of month of the n-th given weekday of the month.
func nthWeekday(year int, month time.Month, wd time.Weekday, n int) int {
	first := time.Date(year, month, 1, 12, 0, 0, 0, time.UTC)
	offset := (int(wd) - int(first.Weekday()) + 7) % 7
	return 1 + offset + (n-1)*7
}

// lastWeekday returns the day of month of the last given weekday of the month.
func lastWeekday(year int, month time.Month, wd time.Weekday) int {
	last := time.Date(year, month+1, 1, 12, 0, 0, 0, time.UTC).AddDate(0, 0, -1)
	offset := (int(last.Weekday()) - int(wd) + 7) % 7
	return last.Day() - offset
}
