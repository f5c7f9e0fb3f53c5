package activity

import (
	"errors"
	"math"
	"math/rand"
	"slices"
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
	p, err := Build(weekdayTimestamps(40, 14), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Samples != 40 {
		t.Errorf("Samples = %d", p.Samples)
	}
	if p.Bins[14] != 1 {
		t.Errorf("Bins[14] = %v, want 1", p.Bins[14])
	}
	for h, b := range p.Bins {
		if h != 14 && b != 0 {
			t.Errorf("Bins[%d] = %v, want 0", h, b)
		}
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
	p, err := Build(stamps, Options{}, nil)
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
	_, err := Build(weekdayTimestamps(29, 9), Options{}, nil)
	if !errors.Is(err, ErrInsufficientTimestamps) {
		t.Errorf("err = %v, want ErrInsufficientTimestamps", err)
	}
	if _, err := Build(weekdayTimestamps(30, 9), Options{}, nil); err != nil {
		t.Errorf("30 timestamps must suffice: %v", err)
	}
	// Override.
	if _, err := Build(weekdayTimestamps(5, 9), Options{MinTimestamps: 5}, nil); err != nil {
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
	p, err := Build(stamps, Options{ExcludeWeekends: true}, nil)
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
	p2, _ := Build(stamps, Options{}, nil)
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
	p, err := Build(stamps, opts, nil)
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
	p, err := Build(local, Options{ForumUTCOffsetMinutes: -300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bins[1] != 1 {
		t.Errorf("aligned bin = %v, want all mass at hour 1", p.Bins)
	}
}

func TestProfileVectorAndCosine(t *testing.T) {
	a, _ := Build(weekdayTimestamps(30, 9), Options{}, nil)
	b, _ := Build(weekdayTimestamps(30, 9), Options{}, nil)
	c, _ := Build(weekdayTimestamps(30, 21), Options{}, nil)
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
	p, err := Build(stamps, Options{}, nil)
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

// entropy is the Shannon entropy of p's bins in bits: log2(24) ≈ 4.58 for
// uniform posting, 0 for one fixed hour.
func entropy(p *Profile) float64 {
	e := 0.0
	for _, b := range p.Bins {
		if b > 0 {
			e -= b * math.Log2(b)
		}
	}
	return e
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
	p, err := Build(stamps, Options{MinTimestamps: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log2(24)
	if got := entropy(p); math.Abs(got-want) > 0.01 {
		t.Errorf("uniform entropy = %v, want %v", got, want)
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

// cells builds a one-timestamp-minimum profile over stamps and returns its
// active (day, hour) cell count and the hours holding posts.
func cells(t *testing.T, stamps ...time.Time) (active int, hours []int) {
	t.Helper()
	p, err := Build(stamps, Options{MinTimestamps: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for h, b := range p.Bins {
		if b > 0 {
			hours = append(hours, h)
		}
	}
	return p.ActiveBins, hours
}

func TestHourBinsByUTCHour(t *testing.T) {
	a := time.Date(2017, 6, 1, 13, 5, 0, 0, time.UTC)
	b := time.Date(2017, 6, 1, 13, 55, 0, 0, time.UTC)
	c := time.Date(2017, 6, 1, 14, 0, 0, 0, time.UTC)
	if n, hours := cells(t, a, b); n != 1 || len(hours) != 1 || hours[0] != 13 {
		t.Errorf("13:05 and 13:55: %d cells at hours %v, want one at 13", n, hours)
	}
	if n, _ := cells(t, a, c); n != 2 {
		t.Errorf("13:05 and 14:00: %d cells, want 2", n)
	}
}

func TestHourBinsDayBoundary(t *testing.T) {
	lastInstant := time.Date(2017, 6, 1, 23, 59, 59, int(time.Second)-1, time.UTC)
	firstInstant := time.Date(2017, 6, 2, 0, 0, 0, 0, time.UTC)
	if n, hours := cells(t, lastInstant, firstInstant); n != 2 || len(hours) != 2 || hours[0] != 0 || hours[1] != 23 {
		t.Errorf("instants 1ns apart across midnight: %d cells at hours %v, want two at 0 and 23", n, hours)
	}
	// The same hour of two days is two cells of one hour.
	if n, hours := cells(t, lastInstant, lastInstant.AddDate(0, 0, 1)); n != 2 || len(hours) != 1 || hours[0] != 23 {
		t.Errorf("23:59 on two days: %d cells at hours %v, want two at 23", n, hours)
	}
	// Before the epoch too: 23:30 on 1969-12-31 and 00:30 on 1970-01-01.
	if n, hours := cells(t, time.Date(1969, 12, 31, 23, 30, 0, 0, time.UTC), time.Date(1970, 1, 1, 0, 30, 0, 0, time.UTC)); n != 2 || len(hours) != 2 || hours[0] != 0 || hours[1] != 23 {
		t.Errorf("across the epoch: %d cells at hours %v, want two at 0 and 23", n, hours)
	}
}

func TestHourBinsNonUTCInput(t *testing.T) {
	// 00:30 on June 1 in UTC+2 is 22:30 on May 31 in UTC: the bin must
	// follow the UTC clock, not the input's wall clock.
	zoned := time.Date(2017, 6, 1, 0, 30, 0, 0, time.FixedZone("CEST", 2*3600))
	if n, hours := cells(t, zoned); n != 1 || hours[0] != 22 {
		t.Errorf("00:30 CEST: %d cells at hours %v, want one at 22 (UTC)", n, hours)
	}
	// The same instant expressed in any zone shares a cell, and 22:10 UTC on
	// May 31 is in it.
	if n, _ := cells(t, zoned, zoned.UTC(), time.Date(2017, 5, 31, 22, 10, 0, 0, time.UTC)); n != 1 {
		t.Errorf("equal instants in different zones and the same UTC hour: %d cells, want 1", n)
	}
}

// TestBuildReusesScratch: with room for every timestamp in hours, the
// profile is Build's one allocation, and what the scratch held before does
// not reach the result.
func TestBuildReusesScratch(t *testing.T) {
	stamps := append(weekdayTimestamps(40, 9), weekdayTimestamps(25, 17)...)
	opts := PaperOptions(2017)
	want, err := Build(stamps, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	hours := make([]int64, len(stamps))
	for i := range hours {
		hours[i] = int64(i * 7919)
	}
	got, err := Build(stamps, opts, hours)
	if err != nil || *got != *want {
		t.Fatalf("with dirty scratch: %+v, %v; want %+v", got, err, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = Build(stamps, opts, hours) }); allocs != 1 {
		t.Errorf("Build with scratch made %v allocations, want 1", allocs)
	}
}

// referenceBuild is Build as first written: a set of (UTC day, hour) cells.
func referenceBuild(timestamps []time.Time, opts Options) (*Profile, bool) {
	type cell struct {
		y, m, d, h int
	}
	seen := map[cell]bool{}
	var counts [Hours]int
	usable := 0
	for _, ts := range timestamps {
		utc := timeutil.AlignUTC(ts, opts.ForumUTCOffsetMinutes)
		if (opts.ExcludeWeekends && timeutil.IsWeekend(utc)) || opts.Holidays.Contains(utc) {
			continue
		}
		usable++
		c := cell{utc.Year(), int(utc.Month()), utc.Day(), utc.Hour()}
		if !seen[c] {
			seen[c] = true
			counts[c.h]++
		}
	}
	if usable < max(opts.MinTimestamps, 1) {
		return nil, false
	}
	p := &Profile{Samples: usable, ActiveBins: len(seen)}
	for h, c := range counts {
		p.Bins[h] = float64(c) / float64(len(seen))
	}
	return p, true
}

// TestBuildMatchesReference: on random timestamps in several zones, across
// weekends, holidays and a forum offset, Build's profile is the reference's
// bit for bit.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	zones := []*time.Location{time.UTC, time.FixedZone("A", -5*3600), time.FixedZone("B", 5*3600+1800)}
	optsOf := []Options{{MinTimestamps: 1}, {MinTimestamps: 1, ExcludeWeekends: true}, PaperOptions(2016, 2017)}
	optsOf[2].MinTimestamps, optsOf[2].ForumUTCOffsetMinutes = 1, 90
	var hours []int64
	for trial := 0; trial < 200; trial++ {
		stamps := make([]time.Time, rng.Intn(80))
		for i := range stamps {
			at := time.Date(2016, 12, 20, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Int63n(int64(40 * 24 * time.Hour))))
			stamps[i] = at.In(zones[rng.Intn(len(zones))])
		}
		for _, opts := range optsOf {
			want, ok := referenceBuild(stamps, opts)
			got, err := Build(stamps, opts, hours)
			if ok != (err == nil) || (ok && *got != *want) {
				t.Fatalf("trial %d, %+v: Build = %+v, %v; want %+v", trial, opts, got, err, want)
			}
			hours = slices.Grow(hours[:0], len(stamps))
		}
	}
}
