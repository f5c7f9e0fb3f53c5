package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Exposition is deterministic end to end: families sort by name, series
// sort by their label-value tuple, label keys keep registration order, and
// histogram buckets keep their fixed declared layout. Two registries fed
// the same events expose byte-identical text.

// Bucket is one cumulative histogram bucket in a snapshot. LE is the
// upper bound rendered Prometheus-style ("0.5", "+Inf") so the JSON form
// can carry the infinity bucket.
type Bucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// SeriesSnapshot is one labelled series. Value carries the counter or
// gauge value (for histograms: the sum of observations); Count and
// Buckets are histogram-only.
type SeriesSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   int64             `json:"count,omitempty"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// FamilySnapshot is one metric family with all its series.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures every family, deterministically ordered. Registered
// collectors run first, so pull-style gauges are fresh in the output.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.collect()
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Type: f.typ.String(), Help: f.help}
		for _, s := range sortedSeries(f) {
			ss := SeriesSnapshot{}
			if len(f.labels) > 0 {
				ss.Labels = make(map[string]string, len(f.labels))
				for i, k := range f.labels {
					ss.Labels[k] = s.labelVals[i]
				}
			}
			switch f.typ {
			case counterType:
				ss.Value = float64(s.counter.Value())
			case gaugeType:
				ss.Value = s.gauge.Value()
			case histogramType:
				ss.Value = s.hist.Sum()
				cum := int64(0)
				for i := range s.hist.counts {
					cum += s.hist.counts[i].Load()
					le := "+Inf"
					if i < len(f.bounds) {
						le = formatFloat(f.bounds[i])
					}
					ss.Buckets = append(ss.Buckets, Bucket{LE: le, Count: cum})
				}
				ss.Count = cum
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// sortedSeries returns a family's series ordered by label-value tuple.
func sortedSeries(f *family) []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelVals, out[j].labelVals
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fam := range r.Snapshot() {
		if fam.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.Name, fam.Type); err != nil {
			return err
		}
		for _, s := range fam.Series {
			if err := writeSeries(w, fam, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, fam FamilySnapshot, s SeriesSnapshot) error {
	if fam.Type != "histogram" {
		_, err := fmt.Fprintf(w, "%s%s %s\n", fam.Name, renderLabels(s.Labels, "", ""), formatFloat(s.Value))
		return err
	}
	for _, b := range s.Buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.Name, renderLabels(s.Labels, "le", b.LE), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.Name, renderLabels(s.Labels, "", ""), formatFloat(s.Value)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.Name, renderLabels(s.Labels, "", ""), s.Count)
	return err
}

// renderLabels renders a sorted {k="v",...} block, optionally appending
// one extra pair (the histogram "le" bound).
func renderLabels(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry at /metrics in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//lint:ignore errdrop a failed write means the scraper hung up; there is no one left to report to
		r.WritePrometheus(w)
	})
}

// AttachDebug mounts the observability surfaces on an existing mux:
// /metrics (Prometheus text), /debug/vars (expvar JSON), and the
// net/http/pprof endpoints under /debug/pprof/.
func AttachDebug(mux *http.ServeMux, reg *Registry) {
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Serve starts the debug server on addr in a background goroutine and
// returns the bound address (useful with ":0") plus a stop function
// that shuts the server down and waits for the goroutine to exit. The
// long-running commands expose this behind their -obs.addr flag and
// defer stop so the serving goroutine cannot outlive main. stop is
// idempotent. Serve errors after startup are reported through logf
// when provided.
func Serve(addr string, reg *Registry, logf func(format string, args ...any)) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	AttachDebug(mux, reg)
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	//lint:ignore goleak the stop signal is out-of-band: stop() calls srv.Close, which unblocks srv.Serve and closes done
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed && logf != nil {
			logf("obs: debug server: %v", err)
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			//lint:ignore errdrop closing a listener the server owns can only fail if already closed
			srv.Close()
			<-done
		})
	}
	return ln.Addr().String(), stop, nil
}
