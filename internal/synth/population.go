package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"darklight/internal/forum"
	"darklight/internal/timeutil"
)

// Config controls world generation: population sizes, cross-forum overlap,
// text volume, style/schedule signal strength, and noise rates. The
// defaults reproduce the proportions of the paper's datasets (§III,
// Table IV).
type Config struct {
	// Seed drives all randomness; equal seeds give identical worlds.
	Seed uint64
	// Person tunes trait distributions.
	Person PersonConfig

	// Population sizes (collected aliases, before polishing).
	RedditUsers int
	TMGUsers    int
	DMUsers     int

	// Cross-forum persons: how many people hold aliases on two platforms.
	TMGDMOverlap    int // dark↔dark (§V-B)
	RedditTMGOveral int // open↔dark (§V-C)
	RedditDMOverlap int

	// DomainDrift is the style shift between the open and the dark
	// personas of the same person (0 = identical style everywhere).
	DomainDrift float64

	// Per-forum total-words-per-alias lognormal parameters. Dark-web users
	// write far less than redditors (Fig. 1, Table IV).
	RedditWordsMu, RedditWordsSigma float64
	TMGWordsMu, TMGWordsSigma       float64
	DMWordsMu, DMWordsSigma         float64

	// Words-per-message lognormal parameters; TMG messages are "longer
	// than average and more digressive" (§III-B2).
	WordsPerMsgMu, WordsPerMsgSigma float64
	TMGWordsPerMsgMu                float64

	// Noise rates (per message unless stated).
	BotFraction     float64 // per forum, fraction of extra bot aliases
	ForeignFraction float64 // fraction of users who sometimes post non-English
	ForeignRate     float64 // per-message rate for those users
	SpamRate        float64
	ShortRate       float64
	QuoteRate       float64
	PGPRate         float64
	MailRate        float64
	URLRate         float64
	EditRate        float64
	ASCIIArtRate    float64

	// CrossForumWordBoost raises the lognormal μ of a cross-forum person's
	// word budget on dark forums: the users the paper could link are by
	// construction the prolific ones who clear the refinement thresholds
	// on both platforms.
	CrossForumWordBoost float64

	// Evidence planting.
	RevealRateOpen   float64 // per-message fact reveal rate on Reddit
	RevealRateDark   float64 // per-message fact reveal rate on dark forums
	LinkEvidenceFrac float64 // fraction of cross-forum persons with explicit link evidence
	VendorFraction   float64 // fraction of dark aliases that are vendors

	// Sampling window for timestamps.
	Start, End time.Time
}

// DefaultConfig returns a world calibrated to the paper's dataset shapes at
// full scale (16,567 Reddit users; 4,709 TMG; 6,348 DM).
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Person:          DefaultPersonConfig(),
		RedditUsers:     16567,
		TMGUsers:        4709,
		DMUsers:         6348,
		TMGDMOverlap:    24,
		RedditTMGOveral: 30,
		RedditDMOverlap: 28,
		DomainDrift:     0.25,

		RedditWordsMu: 8.2, RedditWordsSigma: 1.1,
		TMGWordsMu: 5.9, TMGWordsSigma: 1.4,
		DMWordsMu: 5.2, DMWordsSigma: 1.4,

		WordsPerMsgMu: 3.3, WordsPerMsgSigma: 0.55,
		TMGWordsPerMsgMu: 3.9,

		BotFraction:     0.015,
		ForeignFraction: 0.06,
		ForeignRate:     0.5,
		SpamRate:        0.01,
		ShortRate:       0.08,
		QuoteRate:       0.10,
		PGPRate:         0.01,
		MailRate:        0.01,
		URLRate:         0.05,
		EditRate:        0.04,
		ASCIIArtRate:    0.005,

		CrossForumWordBoost: 2.8,

		RevealRateOpen:   0.035,
		RevealRateDark:   0.012,
		LinkEvidenceFrac: 0.45,
		VendorFraction:   0.12,

		Start: Year2017Start,
		End:   Year2017End,
	}
}

// Scaled returns a copy with the population counts multiplied by f
// (minimum 1 where the original is positive). Cross-forum overlap counts
// shrink by √f instead (with a floor of 6): they are the plantable pairs
// every §V experiment looks for, and scaling them linearly leaves a small
// world with nothing to find. Noise and signal parameters are untouched.
func (c Config) Scaled(f float64) Config {
	scale := func(n int) int {
		if n <= 0 {
			return n
		}
		s := int(float64(n) * f)
		if s < 1 {
			s = 1
		}
		return s
	}
	gentle := func(n int) int {
		if n <= 0 {
			return n
		}
		s := int(float64(n) * math.Sqrt(f))
		if s < 6 {
			s = 6
		}
		if s > n && f <= 1 {
			s = n
		}
		return s
	}
	c.RedditUsers = scale(c.RedditUsers)
	c.TMGUsers = scale(c.TMGUsers)
	c.DMUsers = scale(c.DMUsers)
	c.TMGDMOverlap = gentle(c.TMGDMOverlap)
	c.RedditTMGOveral = gentle(c.RedditTMGOveral)
	c.RedditDMOverlap = gentle(c.RedditDMOverlap)
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TMGDMOverlap+c.RedditTMGOveral > c.TMGUsers {
		return fmt.Errorf("synth: TMG overlaps (%d) exceed TMG users (%d)",
			c.TMGDMOverlap+c.RedditTMGOveral, c.TMGUsers)
	}
	if c.TMGDMOverlap+c.RedditDMOverlap > c.DMUsers {
		return fmt.Errorf("synth: DM overlaps (%d) exceed DM users (%d)",
			c.TMGDMOverlap+c.RedditDMOverlap, c.DMUsers)
	}
	if c.RedditTMGOveral+c.RedditDMOverlap > c.RedditUsers {
		return fmt.Errorf("synth: Reddit overlaps (%d) exceed Reddit users (%d)",
			c.RedditTMGOveral+c.RedditDMOverlap, c.RedditUsers)
	}
	if !c.End.After(c.Start) {
		return fmt.Errorf("synth: empty sampling window [%v, %v)", c.Start, c.End)
	}
	return nil
}

// GroundTruth records who is who — the oracle the paper lacked and had to
// reconstruct by manual inspection.
type GroundTruth struct {
	// PersonOf maps alias key ("platform/name") to person ID. Bots and
	// other non-person aliases are absent.
	PersonOf map[string]int
	// AliasesOf maps person ID to all their alias keys.
	AliasesOf map[int][]string
	// Facts is each person's full biography.
	Facts map[int][]Fact
	// Revealed lists the facts actually leaked by each alias's messages.
	Revealed map[string][]Fact
	// LinkEvidence lists explicit linking evidence planted on an alias:
	// "self-reference", "shared-link", "shared-mail", "brand-reuse".
	LinkEvidence map[string][]string
	// Vendors flags vendor persons (they reuse their brand nickname).
	Vendors map[int]bool
}

func newGroundTruth() *GroundTruth {
	return &GroundTruth{
		PersonOf:     make(map[string]int),
		AliasesOf:    make(map[int][]string),
		Facts:        make(map[int][]Fact),
		Revealed:     make(map[string][]Fact),
		LinkEvidence: make(map[string][]string),
		Vendors:      make(map[int]bool),
	}
}

// SamePerson reports whether two alias keys belong to one person.
func (g *GroundTruth) SamePerson(a, b string) bool {
	pa, oka := g.PersonOf[a]
	pb, okb := g.PersonOf[b]
	return oka && okb && pa == pb
}

// MateOn returns the alias key the same person holds on the given platform,
// if any.
func (g *GroundTruth) MateOn(key string, p forum.Platform) (string, bool) {
	id, ok := g.PersonOf[key]
	if !ok {
		return "", false
	}
	prefix := p.String() + "/"
	for _, k := range g.AliasesOf[id] {
		if k != key && strings.HasPrefix(k, prefix) {
			return k, true
		}
	}
	return "", false
}

// World is a generated universe: three forums plus ground truth.
type World struct {
	Reddit *forum.Dataset
	TMG    *forum.Dataset
	DM     *forum.Dataset
	Truth  *GroundTruth
	Config Config
}

// Forum returns the dataset the commands' -forum flag names: "reddit",
// "tmg" or "dm".
func (w *World) Forum(which string) (*forum.Dataset, error) {
	switch which {
	case "reddit":
		return w.Reddit, nil
	case "tmg":
		return w.TMG, nil
	case "dm":
		return w.DM, nil
	}
	return nil, fmt.Errorf("unknown forum %q (want reddit, tmg, or dm)", which)
}

// forumSpec describes per-forum generation parameters.
type forumSpec struct {
	id          string
	platform    forum.Platform
	wordsMu     float64
	wordsSigma  float64
	wpmMu       float64
	wpmSigma    float64
	topics      []string
	boards      []string
	revealRate  float64
	utcOffset   int // minutes; the scraper sees forum-local times
	isDark      bool
	driftFactor float64 // multiplier on cfg.DomainDrift for this forum
}

var darkTopics = []string{TopicDrugs, TopicCrypto, TopicTech, TopicPsych}

// Generate builds the world. Generation is deterministic in cfg.Seed.
func Generate(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{Truth: newGroundTruth(), Config: cfg}

	specs := map[string]forumSpec{
		"reddit": {
			id: "reddit", platform: forum.PlatformReddit,
			wordsMu: cfg.RedditWordsMu, wordsSigma: cfg.RedditWordsSigma,
			wpmMu: cfg.WordsPerMsgMu, wpmSigma: cfg.WordsPerMsgSigma,
			topics: Topics, revealRate: cfg.RevealRateOpen,
			utcOffset: 0, driftFactor: 1, // Reddit is the "open" persona
		},
		"tmg": {
			id: "tmg", platform: forum.PlatformTheMajesticGarden,
			wordsMu: cfg.TMGWordsMu, wordsSigma: cfg.TMGWordsSigma,
			wpmMu: cfg.TMGWordsPerMsgMu, wpmSigma: cfg.WordsPerMsgSigma,
			topics: darkTopics, revealRate: cfg.RevealRateDark,
			boards:    []string{"vendor-threads", "psychedelic-literature", "drug-cooking", "general-discussion"},
			utcOffset: TMGUTCOffsetMinutes, isDark: true, driftFactor: 0.15,
		},
		"dm": {
			id: "dm", platform: forum.PlatformDreamMarket,
			wordsMu: cfg.DMWordsMu, wordsSigma: cfg.DMWordsSigma,
			wpmMu: cfg.WordsPerMsgMu, wpmSigma: cfg.WordsPerMsgSigma,
			topics: darkTopics, revealRate: cfg.RevealRateDark,
			boards:    []string{"products-and-vendor-reviews", "marketplace-discussions", "advertising-and-promotions", "scams"},
			utcOffset: DMUTCOffsetMinutes, isDark: true, driftFactor: 0.15,
		},
	}

	// --- assign persons to forums ---
	// Person IDs are dense. Overlap persons come first so their indices are
	// predictable: [0, TMGDMOverlap) on TMG+DM, then Reddit+TMG, then
	// Reddit+DM, then singles.
	type membership struct{ forums []string }
	var members []membership
	for i := 0; i < cfg.TMGDMOverlap; i++ {
		members = append(members, membership{[]string{"tmg", "dm"}})
	}
	for i := 0; i < cfg.RedditTMGOveral; i++ {
		members = append(members, membership{[]string{"reddit", "tmg"}})
	}
	for i := 0; i < cfg.RedditDMOverlap; i++ {
		members = append(members, membership{[]string{"reddit", "dm"}})
	}
	singles := map[string]int{
		"reddit": cfg.RedditUsers - cfg.RedditTMGOveral - cfg.RedditDMOverlap,
		"tmg":    cfg.TMGUsers - cfg.TMGDMOverlap - cfg.RedditTMGOveral,
		"dm":     cfg.DMUsers - cfg.TMGDMOverlap - cfg.RedditDMOverlap,
	}
	for _, f := range []string{"reddit", "tmg", "dm"} {
		for i := 0; i < singles[f]; i++ {
			members = append(members, membership{[]string{f}})
		}
	}

	datasets := map[string]*forum.Dataset{
		"reddit": forum.NewDataset("Reddit", forum.PlatformReddit),
		"tmg":    forum.NewDataset("TMG", forum.PlatformTheMajesticGarden),
		"dm":     forum.NewDataset("DM", forum.PlatformDreamMarket),
	}
	usedNames := map[string]map[string]bool{
		"reddit": {}, "tmg": {}, "dm": {},
	}

	for id, m := range members {
		person := NewPerson(cfg.Seed, id, cfg.Person)
		w.Truth.Facts[id] = person.generateFacts()
		vendorRand := subRand(person.Seed, "vendor")
		isVendor := false
		for _, f := range m.forums {
			if specs[f].isDark && vendorRand.Float64() < cfg.VendorFraction {
				isVendor = true
			}
		}
		if isVendor {
			w.Truth.Vendors[id] = true
		}
		crossForum := len(m.forums) > 1
		linkEvidence := ""
		if crossForum {
			er := subRand(person.Seed, "evidence")
			if isVendor {
				linkEvidence = "brand-reuse"
			} else if er.Float64() < cfg.LinkEvidenceFrac {
				linkEvidence = []string{"self-reference", "shared-link", "shared-mail"}[er.Intn(3)]
			}
		}

		// Pre-compute every nickname so self-references can point at the
		// alias on the *other* platform. Nicknames must be unique per
		// forum: a collision would merge two people's ground truth.
		nicknames := make(map[string]string, len(m.forums))
		collided := false
		for _, f := range m.forums {
			if usedNames[f][person.Nickname(f, isVendor)] {
				collided = true
			}
		}
		for _, f := range m.forums {
			name := person.Nickname(f, isVendor)
			if collided {
				// Suffix on every forum so a vendor's brand stays equal
				// across platforms.
				name = fmt.Sprintf("%s_%d", name, id)
			}
			usedNames[f][name] = true
			nicknames[f] = name
		}

		for _, f := range m.forums {
			spec := specs[f]
			other := ""
			for _, g := range m.forums {
				if g != f {
					other = g
				}
			}
			alias := generateAlias(w.Truth, person, spec, cfg, aliasContext{
				nickname:      nicknames[f],
				otherNickname: nicknames[other],
				otherForum:    other,
				linkEvidence:  linkEvidence,
				isVendor:      isVendor && spec.isDark,
				crossForum:    crossForum,
			})
			key := alias.Key()
			w.Truth.PersonOf[key] = id
			w.Truth.AliasesOf[id] = append(w.Truth.AliasesOf[id], key)
			datasets[f].Aliases = append(datasets[f].Aliases, alias)
		}
	}

	// --- bots ---
	for _, f := range []string{"reddit", "tmg", "dm"} {
		spec := specs[f]
		n := int(float64(datasets[f].Len()) * cfg.BotFraction)
		for i := 0; i < n; i++ {
			datasets[f].Aliases = append(datasets[f].Aliases, generateBot(cfg, spec, i))
		}
	}

	w.Reddit, w.TMG, w.DM = datasets["reddit"], datasets["tmg"], datasets["dm"]
	return w, nil
}

type aliasContext struct {
	nickname      string
	otherNickname string
	otherForum    string
	linkEvidence  string
	isVendor      bool
	crossForum    bool
}

// generateAlias produces one alias's full message stream on one forum.
func generateAlias(truth *GroundTruth, p *Person, spec forumSpec, cfg Config, ctx aliasContext) forum.Alias {
	r := subRand(p.Seed, "messages/"+spec.id)
	style := p.NewStyle(spec.id, cfg.DomainDrift*spec.driftFactor)

	wordsMu := spec.wordsMu
	if ctx.crossForum && spec.isDark {
		wordsMu += cfg.CrossForumWordBoost
	}
	totalWords := lognormal(r, wordsMu, spec.wordsSigma)
	if totalWords < 30 {
		totalWords = 30
	}
	if totalWords > 40000 {
		totalWords = 40000
	}

	isForeign := r.Float64() < cfg.ForeignFraction && !spec.isDark

	alias := forum.Alias{Name: ctx.nickname, Platform: spec.platform}
	key := spec.platform.String() + "/" + ctx.nickname
	facts := truth.Facts[p.ID]

	// Vendors repost a showcase message (dedup fodder).
	var showcase string
	if ctx.isVendor {
		showcase = "OFFICIAL " + strings.ToUpper(ctx.nickname) + " THREAD. " +
			style.GenerateMessage(r, TopicDrugs, 60) +
			" all orders ship within 48 hours, check the price list below."
	}

	written := 0.0
	msgIdx := 0
	evidencePlanted := false
	for written < totalWords {
		topic := p.PickTopic(r, spec.topics)
		board := boardFor(r, spec, topic)
		target := int(lognormal(r, spec.wpmMu, spec.wpmSigma))
		if target < 3 {
			target = 3
		}
		if target > 400 {
			target = 400
		}

		var body string
		switch x := r.Float64(); {
		case x < cfg.SpamRate:
			body = spamBody(r)
		case x < cfg.SpamRate+cfg.ShortRate:
			body = shortBody(r)
		case isForeign && r.Float64() < cfg.ForeignRate:
			body = foreignSentences[r.Intn(len(foreignSentences))]
		case ctx.isVendor && msgIdx > 0 && msgIdx%17 == 0:
			body = showcase // verbatim repost
		default:
			body = style.GenerateMessage(r, topic, target)
			body = injectNoise(r, style, cfg, topic, ctx.nickname, body)
			body = injectEvidence(truth, r, spec, ctx, key, facts, body, msgIdx, &evidencePlanted)
		}

		ts := p.SampleTimestamps(r, 1, cfg.Start, cfg.End)[0]
		// The forum records local wall-clock time; the activity stage
		// aligns it back using the forum's offset.
		localTS := ts.Add(time.Duration(spec.utcOffset) * time.Minute)
		alias.Messages = append(alias.Messages, forum.Message{
			ID:       fmt.Sprintf("%s-%d-%d", spec.id, p.ID, msgIdx),
			Author:   ctx.nickname,
			Board:    board,
			Thread:   fmt.Sprintf("%s-t%d", board, r.Intn(500)),
			Body:     body,
			PostedAt: localTS,
		})
		written += float64(len(strings.Fields(body)))
		msgIdx++
	}
	return alias
}

// injectNoise adds the per-message noise artefacts.
func injectNoise(r *rand.Rand, style *Style, cfg Config, topic, nickname, body string) string {
	if r.Float64() < cfg.QuoteRate {
		body = quotedLines(r, style, topic) + body
	}
	if r.Float64() < cfg.URLRate {
		body += urlSnippet(r)
	}
	if r.Float64() < cfg.MailRate {
		body += mailSnippet(r, nickname)
	}
	if r.Float64() < cfg.EditRate {
		body += editMark(r, nickname)
	}
	if r.Float64() < cfg.PGPRate {
		body += "\nmy key follows, always verify before ordering\n" + fakePGPBlock(r)
	}
	if r.Float64() < cfg.ASCIIArtRate {
		body += " " + asciiArtToken(r)
	}
	return body
}

// injectEvidence plants fact reveals and explicit link evidence, recording
// both in the ground truth.
func injectEvidence(truth *GroundTruth, r *rand.Rand, spec forumSpec, ctx aliasContext, key string, facts []Fact, body string, msgIdx int, planted *bool) string {
	if r.Float64() < spec.revealRate {
		f := facts[r.Intn(len(facts))]
		body += " " + factSentence(r, f)
		truth.Revealed[key] = append(truth.Revealed[key], f)
	}
	// Explicit link evidence fires once, on the first regular message past
	// the first few, on both sides of the pair.
	if ctx.linkEvidence != "" && !*planted && msgIdx >= 3 {
		*planted = true
		switch ctx.linkEvidence {
		case "self-reference":
			body += " btw i also post as " + ctx.otherNickname + " over on " + ctx.otherForum + "."
		case "shared-link":
			// The same referral URL (containing the person's stable brand
			// fragment) appears on both platforms.
			body += " if you sign up use my link " + referralURL(ctx.nickname) + " helps me out."
		case "shared-mail":
			body += mailSnippet(r, "the.real."+strings.ToLower(ctx.otherNickname))
		case "brand-reuse":
			body += " yes i am the same " + ctx.nickname + " you know from the other market, same pgp same service."
		}
		truth.LinkEvidence[key] = append(truth.LinkEvidence[key], ctx.linkEvidence)
	}
	return body
}

func boardFor(r *rand.Rand, spec forumSpec, topic string) string {
	if spec.isDark {
		return spec.boards[r.Intn(len(spec.boards))]
	}
	subs := subredditsByTopic[topic]
	if len(subs) == 0 {
		return "misc"
	}
	// Zipf-ish: first boards get most traffic.
	for i := range subs {
		if r.Float64() < 0.45 || i == len(subs)-1 {
			return subs[i]
		}
	}
	return subs[0]
}

// generateBot creates a bot alias: "bot" nickname, tiny fixed repertoire
// repeated verbatim, metronomic posting hour.
func generateBot(cfg Config, spec forumSpec, i int) forum.Alias {
	r := subRand(hash2(cfg.Seed, hashString(spec.id+"/bot")), fmt.Sprint(i))
	name := fmt.Sprintf("%s_bot%d", nicknameNouns[r.Intn(len(nicknameNouns))], i)
	if r.Intn(2) == 0 {
		name = fmt.Sprintf("bot_%s%d", nicknameAdjectives[r.Intn(len(nicknameAdjectives))], i)
	}
	alias := forum.Alias{Name: name, Platform: spec.platform}
	bodies := botBodies(r)
	n := 40 + r.Intn(200)
	days := int(cfg.End.Sub(cfg.Start).Hours() / 24)
	hour := r.Intn(24)
	for m := 0; m < n; m++ {
		day := cfg.Start.AddDate(0, 0, r.Intn(days))
		ts := time.Date(day.Year(), day.Month(), day.Day(), hour, r.Intn(10), r.Intn(60), 0, time.UTC)
		alias.Messages = append(alias.Messages, forum.Message{
			ID:       fmt.Sprintf("%s-bot%d-%d", spec.id, i, m),
			Author:   name,
			Board:    "announcements",
			Body:     bodies[m%len(bodies)],
			PostedAt: ts,
		})
	}
	return alias
}

// Forum-local clock offsets (minutes from UTC) used when stamping
// messages: the scraper sees each forum's own wall-clock time, and §IV-B's
// UTC alignment must undo exactly these.
const (
	RedditUTCOffsetMinutes = 0
	TMGUTCOffsetMinutes    = -300
	DMUTCOffsetMinutes     = 60
)

// UTCOffsetMinutes returns the forum-local clock offset of a platform.
func UTCOffsetMinutes(p forum.Platform) int {
	switch p {
	case forum.PlatformTheMajesticGarden:
		return TMGUTCOffsetMinutes
	case forum.PlatformDreamMarket:
		return DMUTCOffsetMinutes
	default:
		return RedditUTCOffsetMinutes
	}
}

// AlignUTC converts every message timestamp of all three forums from
// forum-local time to UTC, in place — the §IV-B alignment step ("since
// each forum reports a time aligned on a different time-zone, we align the
// timestamps by adjusting all the profiles to UTC"). Skipping it shifts a
// cross-forum pair's daily-activity profiles against each other and breaks
// exactly the cross-forum experiments, while leaving same-forum alter-ego
// results untouched.
func (w *World) AlignUTC() {
	for _, d := range []*forum.Dataset{w.Reddit, w.TMG, w.DM} {
		offset := UTCOffsetMinutes(d.Platform)
		if offset == 0 {
			continue
		}
		for i := range d.Aliases {
			for j := range d.Aliases[i].Messages {
				m := &d.Aliases[i].Messages[j]
				m.PostedAt = timeutil.AlignUTC(m.PostedAt, offset)
			}
		}
	}
}
