// Package darkweb serves a forum dataset over HTTP the way a hidden
// service would: board index, paginated thread listings, paginated thread
// pages with posts. It is the test double for the paper's data-collection
// targets ("these sites do not have open APIs; we had to scrape the
// content of the forums", §III-B) — the scraper package crawls it exactly
// as it would crawl the real thing, including slow responses, transient
// errors, rate-limit pushback, stalled circuits, and truncated bodies.
package darkweb

import (
	"fmt"
	"html"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"darklight/internal/forum"
)

// PostsPerPage is the thread pagination size.
const PostsPerPage = 20

// ThreadsPerPage is the board pagination size.
const ThreadsPerPage = 25

// Options tune the server's failure injection. All rates are independent
// probabilities evaluated per request, in the order: FailFirstN,
// FailureRate, RetryAfterRate, then (on the content path) StallRate and
// TruncateRate.
type Options struct {
	// Latency delays every response (simulated Tor circuit time).
	Latency time.Duration
	// FailureRate is the probability of answering 503 instead of content
	// (the scraper must retry). 0 disables.
	FailureRate float64
	// RetryAfterRate is the probability of answering 429 Too Many Requests
	// with a Retry-After header — the forum telling the scraper to slow
	// down. 0 disables.
	RetryAfterRate float64
	// RetryAfter is the Retry-After header value, rounded up to whole
	// seconds as the header demands (default 1s when RetryAfterRate > 0).
	RetryAfter time.Duration
	// StallRate is the probability that a response writes half its body,
	// then stalls for StallFor before completing — a congested circuit. A
	// client with a deadline sees a timeout mid-body. 0 disables.
	StallRate float64
	// StallFor is how long a stalled response hangs (default 1s when
	// StallRate > 0).
	StallFor time.Duration
	// TruncateRate is the probability that a response declares the full
	// Content-Length but closes after half the body — a collapsed circuit.
	// The client sees an unexpected EOF. 0 disables.
	TruncateRate float64
	// FailFirstN makes every distinct URL (path + query) answer 503 to its
	// first N requests and succeed afterwards — deterministic per-page
	// flakiness for retry and pagination tests. 0 disables.
	FailFirstN int
	// Seed drives failure injection.
	Seed int64
}

// Server renders one dataset as a forum.
type Server struct {
	name string
	opts Options

	mu      sync.Mutex
	rng     *rand.Rand
	hits    map[string]int // URL → requests seen (FailFirstN)
	boards  []string
	threads map[string][]string        // board → thread ids (sorted)
	posts   map[string][]forum.Message // thread id → posts by time
}

// NewServer indexes the dataset into boards and threads. Messages without
// a thread are grouped into a per-board "general" thread.
func NewServer(name string, d *forum.Dataset, opts Options) *Server {
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.StallFor <= 0 {
		opts.StallFor = time.Second
	}
	s := &Server{
		name:    name,
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		hits:    make(map[string]int),
		threads: make(map[string][]string),
		posts:   make(map[string][]forum.Message),
	}
	boardSet := make(map[string]map[string]bool)
	for i := range d.Aliases {
		for _, m := range d.Aliases[i].Messages {
			board := m.Board
			if board == "" {
				board = "general"
			}
			thread := m.Thread
			if thread == "" {
				thread = board + "-general"
			}
			if boardSet[board] == nil {
				boardSet[board] = make(map[string]bool)
			}
			if !boardSet[board][thread] {
				boardSet[board][thread] = true
				s.threads[board] = append(s.threads[board], thread)
			}
			s.posts[thread] = append(s.posts[thread], m)
		}
	}
	for board, threads := range s.threads {
		sort.Strings(threads)
		s.threads[board] = threads
		s.boards = append(s.boards, board)
	}
	sort.Strings(s.boards)
	for _, posts := range s.posts {
		sort.Slice(posts, func(i, j int) bool {
			if !posts[i].PostedAt.Equal(posts[j].PostedAt) {
				return posts[i].PostedAt.Before(posts[j].PostedAt)
			}
			return posts[i].ID < posts[j].ID
		})
	}
	return s
}

// Boards returns the board names.
func (s *Server) Boards() []string { return append([]string(nil), s.boards...) }

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.withChaos(s.handleIndex))
	mux.HandleFunc("/board/", s.withChaos(s.handleBoard))
	mux.HandleFunc("/thread/", s.withChaos(s.handleThread))
	return mux
}

// roll draws one uniform [0,1) variate under the lock.
func (s *Server) roll() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64()
}

// withChaos applies latency and failure injection.
func (s *Server) withChaos(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.opts.Latency > 0 {
			time.Sleep(s.opts.Latency)
		}
		if s.opts.FailFirstN > 0 {
			key := r.URL.EscapedPath()
			if q := r.URL.RawQuery; q != "" {
				key += "?" + q
			}
			s.mu.Lock()
			s.hits[key]++
			flaky := s.hits[key] <= s.opts.FailFirstN
			s.mu.Unlock()
			if flaky {
				http.Error(w, "page flaked, try again", http.StatusServiceUnavailable)
				return
			}
		}
		if s.opts.FailureRate > 0 && s.roll() < s.opts.FailureRate {
			http.Error(w, "circuit collapsed, try again", http.StatusServiceUnavailable)
			return
		}
		if s.opts.RetryAfterRate > 0 && s.roll() < s.opts.RetryAfterRate {
			secs := int((s.opts.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		h(w, r)
	}
}

// pathID recovers the raw board/thread id from the request path. Handlers
// work on the escaped path so ids containing '/', '?', '"', spaces, or
// any other hostile byte survive the round trip (the index emits
// PathEscape'd hrefs, the scraper unescapes them back).
func pathID(r *http.Request, prefix string) (string, bool) {
	esc := strings.TrimPrefix(r.URL.EscapedPath(), prefix)
	id, err := url.PathUnescape(esc)
	if err != nil || id == "" {
		return "", false
	}
	return id, true
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n", html.EscapeString(s.name))
	fmt.Fprintf(&b, "<h1>%s</h1>\n<ul class=\"boards\">\n", html.EscapeString(s.name))
	for _, board := range s.boards {
		fmt.Fprintf(&b, "<li><a class=\"board\" href=\"/board/%s\">%s</a> (%d threads)</li>\n",
			url.PathEscape(board), html.EscapeString(board), len(s.threads[board]))
	}
	b.WriteString("</ul></body></html>\n")
	s.writeHTML(w, r, b.String())
}

func (s *Server) handleBoard(w http.ResponseWriter, r *http.Request) {
	board, ok := pathID(r, "/board/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	threads, ok := s.threads[board]
	if !ok {
		http.NotFound(w, r)
		return
	}
	page := pageOf(r)
	start, end, last := paginate(len(threads), ThreadsPerPage, page)
	var b strings.Builder
	fmt.Fprintf(&b, "<html><body><h2>board: %s</h2>\n<ul class=\"threads\">\n", html.EscapeString(board))
	for _, t := range threads[start:end] {
		fmt.Fprintf(&b, "<li><a class=\"thread\" href=\"/thread/%s\">%s</a> (%d posts)</li>\n",
			url.PathEscape(t), html.EscapeString(t), len(s.posts[t]))
	}
	b.WriteString("</ul>\n")
	if page < last {
		fmt.Fprintf(&b, "<a class=\"next\" href=\"/board/%s?page=%d\">next</a>\n", url.PathEscape(board), page+1)
	}
	b.WriteString("</body></html>\n")
	s.writeHTML(w, r, b.String())
}

func (s *Server) handleThread(w http.ResponseWriter, r *http.Request) {
	thread, ok := pathID(r, "/thread/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	posts, ok := s.posts[thread]
	if !ok {
		http.NotFound(w, r)
		return
	}
	page := pageOf(r)
	start, end, last := paginate(len(posts), PostsPerPage, page)
	var b strings.Builder
	fmt.Fprintf(&b, "<html><body><h2>thread: %s</h2>\n", html.EscapeString(thread))
	for _, p := range posts[start:end] {
		// Attribute values are entity-escaped, not %q-escaped: the
		// scraper's parser understands &#34;, not Go's \".
		fmt.Fprintf(&b,
			"<article class=\"post\" data-id=\"%s\" data-author=\"%s\" data-board=\"%s\" data-time=\"%s\">\n%s\n</article>\n",
			html.EscapeString(p.ID), html.EscapeString(p.Author), html.EscapeString(p.Board),
			p.PostedAt.Format(time.RFC3339), html.EscapeString(p.Body))
	}
	if page < last {
		fmt.Fprintf(&b, "<a class=\"next\" href=\"/thread/%s?page=%d\">next</a>\n", url.PathEscape(thread), page+1)
	}
	b.WriteString("</body></html>\n")
	s.writeHTML(w, r, b.String())
}

// writeHTML delivers the rendered page, possibly stalled or truncated.
func (s *Server) writeHTML(w http.ResponseWriter, r *http.Request, body string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if s.opts.TruncateRate > 0 && s.roll() < s.opts.TruncateRate {
		// Promise the full body, deliver half, and bail: net/http tears the
		// connection down and the client reads an unexpected EOF.
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write([]byte(body[:len(body)/2]))
		return
	}
	if s.opts.StallRate > 0 && s.roll() < s.opts.StallRate {
		_, _ = w.Write([]byte(body[:len(body)/2]))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		select {
		case <-time.After(s.opts.StallFor):
		case <-r.Context().Done():
			return
		}
		_, _ = w.Write([]byte(body[len(body)/2:]))
		return
	}
	_, _ = w.Write([]byte(body))
}

func pageOf(r *http.Request) int {
	p, err := strconv.Atoi(r.URL.Query().Get("page"))
	if err != nil || p < 0 {
		return 0
	}
	return p
}

// paginate returns the [start, end) slice bounds of a page and the last
// valid page index.
func paginate(total, perPage, page int) (start, end, last int) {
	if total == 0 {
		return 0, 0, 0
	}
	last = (total - 1) / perPage
	if page > last {
		page = last
	}
	start = page * perPage
	end = start + perPage
	if end > total {
		end = total
	}
	return start, end, last
}
