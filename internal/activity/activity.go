// Package activity builds the daily activity profiles of §IV-B: a 24-bin
// histogram of the hours of the day in which a user posts, eq. (1):
//
//	P_u[h] = Σ_d a_u(d,h) / Σ_{d,h'} a_u(d,h')
//
// where a_u(d,h) is 1 iff user u posted at least once in hour h of day d.
// Timestamps are aligned to UTC, weekends and holidays are excluded (habits
// change on those days), and a profile requires at least MinTimestamps
// usable posts — both choices follow the paper, which follows La Morgia et
// al., "Time-zone geolocation of crowds in the dark web" (ICDCS 2018).
package activity

import (
	"errors"
	"slices"
	"time"

	"darklight/internal/sparse"
	"darklight/internal/timeutil"
)

// MinTimestamps is the minimum number of usable timestamps required to
// build a profile (paper: 30).
const MinTimestamps = 30

// Hours is the profile dimensionality.
const Hours = 24

// ErrInsufficientTimestamps is returned when, after exclusions, fewer than
// the required minimum timestamps remain. It is returned as it is, not
// wrapped: a subject build meets it for every alias short of timestamps.
var ErrInsufficientTimestamps = errors.New("activity: not enough usable timestamps")

// Options configure profile construction. The zero value gives the paper's
// behaviour with no holiday exclusion; use WithUSHolidays for the full rule.
type Options struct {
	// ForumUTCOffsetMinutes is the fixed offset of forum-local timestamps
	// from UTC. 0 means timestamps are already UTC.
	ForumUTCOffsetMinutes int
	// ExcludeWeekends drops Saturday/Sunday posts.
	ExcludeWeekends bool
	// Holidays, when non-nil, drops posts on the listed days.
	Holidays *timeutil.HolidayCalendar
	// MinTimestamps overrides the default minimum when > 0.
	MinTimestamps int
}

// PaperOptions returns the configuration used throughout the paper's
// experiments: UTC alignment, weekend exclusion, US holidays for the years
// the timestamps span.
func PaperOptions(years ...int) Options {
	cal := timeutil.NewHolidayCalendar()
	for _, y := range years {
		for k, v := range holidayDays(y) {
			cal.Add(k.Year(), k.Month(), k.Day(), v)
		}
	}
	return Options{ExcludeWeekends: true, Holidays: cal}
}

func holidayDays(year int) map[time.Time]string {
	c := timeutil.USHolidays(year)
	out := make(map[time.Time]string)
	for d := time.Date(year, 1, 1, 12, 0, 0, 0, time.UTC); d.Year() == year; d = d.AddDate(0, 0, 1) {
		if name, ok := c.Name(d); ok {
			out[d] = name
		}
	}
	return out
}

// Profile is a normalised 24-bin activity histogram.
type Profile struct {
	// Bins sums to 1 over the 24 hours (unless the profile is empty).
	Bins [Hours]float64
	// Samples is the number of usable timestamps the profile was built on.
	Samples int
	// ActiveBins is the number of distinct (day, hour) cells with activity
	// — the denominator of eq. (1).
	ActiveBins int
}

// Build constructs the profile from raw timestamps. hours is scratch for
// the usable timestamps' hours since the epoch: given room for one a
// timestamp, the profile is all Build allocates; nil will do.
func Build(timestamps []time.Time, opts Options, hours []int64) (*Profile, error) {
	minTS := opts.MinTimestamps
	if minTS <= 0 {
		minTS = MinTimestamps
	}
	hours = hours[:0]
	for _, ts := range timestamps {
		utc := timeutil.AlignUTC(ts, opts.ForumUTCOffsetMinutes)
		if opts.ExcludeWeekends && timeutil.IsWeekend(utc) {
			continue
		}
		if opts.Holidays.Contains(utc) {
			continue
		}
		// A UTC day is 24 whole hours from the epoch on, so the hour since the
		// epoch names the (day, hour) cell.
		sec := utc.Unix()
		h := sec / 3600
		if sec%3600 < 0 {
			h--
		}
		hours = append(hours, h)
	}
	if len(hours) < minTS {
		return nil, ErrInsufficientTimestamps
	}
	slices.Sort(hours)
	var hourCounts [Hours]int
	active := 0
	for i, h := range hours {
		if i > 0 && h == hours[i-1] {
			continue // a_u(d,h) is binary: one post per (day,hour) counts
		}
		active++
		hourCounts[(h%Hours+Hours)%Hours]++
	}
	p := &Profile{Samples: len(hours), ActiveBins: active}
	for h, c := range hourCounts {
		p.Bins[h] = float64(c) / float64(active)
	}
	return p, nil
}

// Vector returns the profile as a sparse vector over indices [0, 24).
// The attribution layer concatenates it after the text features.
func (p *Profile) Vector() sparse.Vector {
	return sparse.FromDense(p.Bins[:])
}

// Cosine returns the cosine similarity between two profiles — the paper's
// first measure for whether two aliases on different forums belong to the
// same person.
func Cosine(a, b *Profile) float64 {
	return sparse.Cosine(a.Vector(), b.Vector())
}
