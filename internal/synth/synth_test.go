package synth

import (
	"strings"
	"testing"
	"time"

	"darklight/internal/forum"
)

func tinyConfig() Config {
	cfg := DefaultConfig().Scaled(0.005) // ~80 reddit, ~23 tmg, ~31 dm
	cfg.TMGDMOverlap = 3
	cfg.RedditTMGOveral = 3
	cfg.RedditDMOverlap = 3
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	w1, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if w1.Reddit.Len() != w2.Reddit.Len() {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range w1.Reddit.Aliases {
		a1, a2 := w1.Reddit.Aliases[i], w2.Reddit.Aliases[i]
		if a1.Name != a2.Name || len(a1.Messages) != len(a2.Messages) {
			t.Fatal("alias stream differs across identical seeds")
		}
		if len(a1.Messages) > 0 && a1.Messages[0].Body != a2.Messages[0].Body {
			t.Fatal("message bodies differ across identical seeds")
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cfg1 := tinyConfig()
	cfg2 := tinyConfig()
	cfg2.Seed = 999
	w1, _ := Generate(cfg1)
	w2, _ := Generate(cfg2)
	same := 0
	n := w1.Reddit.Len()
	if w2.Reddit.Len() < n {
		n = w2.Reddit.Len()
	}
	for i := 0; i < n; i++ {
		if w1.Reddit.Aliases[i].Name == w2.Reddit.Aliases[i].Name {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical alias names")
	}
}

func TestValidateRejectsImpossibleOverlaps(t *testing.T) {
	cfg := tinyConfig()
	cfg.TMGDMOverlap = cfg.TMGUsers + 1
	if _, err := Generate(cfg); err == nil {
		t.Error("overlap larger than population must be rejected")
	}
	cfg = tinyConfig()
	cfg.End = cfg.Start
	if _, err := Generate(cfg); err == nil {
		t.Error("empty time window must be rejected")
	}
}

func TestGroundTruthCrossForum(t *testing.T) {
	w, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Truth
	// Count cross-forum persons in ground truth.
	crossTMGDM, crossRedditDark := 0, 0
	for id, keys := range truth.AliasesOf {
		platforms := map[string]bool{}
		for _, k := range keys {
			platforms[strings.SplitN(k, "/", 2)[0]] = true
		}
		if platforms["tmg"] && platforms["dm"] {
			crossTMGDM++
		}
		if platforms["reddit"] && (platforms["tmg"] || platforms["dm"]) {
			crossRedditDark++
		}
		if len(keys) > 2 {
			t.Errorf("person %d has %d aliases, max 2 expected", id, len(keys))
		}
	}
	if crossTMGDM != 3 {
		t.Errorf("TMG∩DM persons = %d, want 3", crossTMGDM)
	}
	if crossRedditDark != 6 {
		t.Errorf("Reddit∩dark persons = %d, want 6", crossRedditDark)
	}
	// SamePerson and MateOn agree.
	for _, keys := range truth.AliasesOf {
		if len(keys) == 2 {
			if !truth.SamePerson(keys[0], keys[1]) {
				t.Error("SamePerson false for one person's aliases")
			}
			p, _ := forum.ParsePlatform(strings.SplitN(keys[1], "/", 2)[0])
			mate, ok := truth.MateOn(keys[0], p)
			if !ok || mate != keys[1] {
				t.Errorf("MateOn(%s) = %s, %v; want %s", keys[0], mate, ok, keys[1])
			}
		}
	}
}

func TestEveryAliasInTruth(t *testing.T) {
	w, _ := Generate(tinyConfig())
	for _, d := range []*forum.Dataset{w.Reddit, w.TMG, w.DM} {
		for i := range d.Aliases {
			a := &d.Aliases[i]
			if a.IsLikelyBot() {
				if _, ok := w.Truth.PersonOf[a.Key()]; ok {
					t.Errorf("bot %s must not map to a person", a.Name)
				}
				continue
			}
			if _, ok := w.Truth.PersonOf[a.Key()]; !ok {
				t.Errorf("alias %s missing from ground truth", a.Key())
			}
		}
	}
}

func TestTimestampsWithinWindow(t *testing.T) {
	cfg := tinyConfig()
	w, _ := Generate(cfg)
	// Allow slack for forum-local clock offsets (±14h) around the window.
	lo := cfg.Start.Add(-15 * time.Hour)
	hi := cfg.End.Add(15 * time.Hour)
	for _, d := range []*forum.Dataset{w.Reddit, w.TMG, w.DM} {
		for i := range d.Aliases {
			for _, m := range d.Aliases[i].Messages {
				if m.PostedAt.Before(lo) || m.PostedAt.After(hi) {
					t.Fatalf("timestamp %v outside window", m.PostedAt)
				}
			}
		}
	}
}

func TestNoiseArtifactsPresent(t *testing.T) {
	w, _ := Generate(tinyConfig())
	var sawPGP, sawMail, sawURL, sawQuote, sawEmoji, sawBot bool
	for _, d := range []*forum.Dataset{w.Reddit, w.TMG, w.DM} {
		for i := range d.Aliases {
			if d.Aliases[i].IsLikelyBot() {
				sawBot = true
			}
			for _, m := range d.Aliases[i].Messages {
				if strings.Contains(m.Body, "BEGIN PGP") {
					sawPGP = true
				}
				if strings.Contains(m.Body, "@") {
					sawMail = true
				}
				if strings.Contains(m.Body, "http") {
					sawURL = true
				}
				if strings.HasPrefix(m.Body, "> ") {
					sawQuote = true
				}
				for _, r := range m.Body {
					if r >= 0x1F300 {
						sawEmoji = true
					}
				}
			}
		}
	}
	for name, saw := range map[string]bool{
		"pgp": sawPGP, "mail": sawMail, "url": sawURL,
		"quote": sawQuote, "emoji": sawEmoji, "bot": sawBot,
	} {
		if !saw {
			t.Errorf("noise class %q never generated", name)
		}
	}
}

func TestFactsConsistentPerPerson(t *testing.T) {
	w, _ := Generate(tinyConfig())
	for key, facts := range w.Truth.Revealed {
		id := w.Truth.PersonOf[key]
		bio := map[FactKind]string{}
		for _, f := range w.Truth.Facts[id] {
			bio[f.Kind] = f.Value
		}
		for _, f := range facts {
			if bio[f.Kind] != f.Value {
				t.Errorf("alias %s revealed %v=%q but biography says %q", key, f.Kind, f.Value, bio[f.Kind])
			}
		}
	}
}

func TestLinkEvidencePlantedOnBothSides(t *testing.T) {
	w, _ := Generate(tinyConfig())
	for key, kinds := range w.Truth.LinkEvidence {
		if len(kinds) == 0 {
			continue
		}
		id, ok := w.Truth.PersonOf[key]
		if !ok {
			t.Errorf("link evidence on unknown alias %s", key)
			continue
		}
		if len(w.Truth.AliasesOf[id]) != 2 {
			t.Errorf("link evidence on single-forum person %d", id)
		}
	}
}

func TestVendorBrandReuse(t *testing.T) {
	w, _ := Generate(tinyConfig())
	for id, isVendor := range w.Truth.Vendors {
		if !isVendor {
			continue
		}
		keys := w.Truth.AliasesOf[id]
		if len(keys) != 2 {
			continue
		}
		n1 := strings.SplitN(keys[0], "/", 2)[1]
		n2 := strings.SplitN(keys[1], "/", 2)[1]
		if n1 != n2 {
			t.Errorf("vendor %d uses different brands: %s vs %s", id, n1, n2)
		}
	}
}

func TestPersonCircadianProperties(t *testing.T) {
	p := NewPerson(1, 7, DefaultPersonConfig())
	r := subRand(p.Seed, "test")
	for i := 0; i < 1000; i++ {
		h := p.SampleHourLocal(r)
		if h < 0 || h >= 24 {
			t.Fatalf("hour %v outside [0,24)", h)
		}
	}
	stamps := p.SampleTimestamps(r, 100, Year2017Start, Year2017End)
	if len(stamps) != 100 {
		t.Fatalf("stamps = %d", len(stamps))
	}
}

func TestStyleGenerationShape(t *testing.T) {
	p := NewPerson(1, 3, DefaultPersonConfig())
	style := p.NewStyle("reddit", 0.2)
	r := subRand(p.Seed, "gen")
	msg := style.GenerateMessage(r, TopicDrugs, 120)
	words := len(strings.Fields(msg))
	if words < 120 || words > 200 {
		t.Errorf("message has %d words, want ≈120", words)
	}
	// Deterministic for same rand stream.
	r2 := subRand(p.Seed, "gen")
	style2 := p.NewStyle("reddit", 0.2)
	if style2.GenerateMessage(r2, TopicDrugs, 120) != msg {
		t.Error("generation must be deterministic")
	}
}

func TestNicknameStability(t *testing.T) {
	p := NewPerson(1, 5, DefaultPersonConfig())
	if p.Nickname("reddit", false) == p.Nickname("tmg", false) {
		t.Error("non-vendor nicknames must differ across forums")
	}
	if p.Nickname("reddit", true) != p.Nickname("tmg", true) {
		t.Error("brand nicknames must be identical across forums")
	}
	if p.Nickname("reddit", false) != p.Nickname("reddit", false) {
		t.Error("nicknames must be stable")
	}
}

func TestTopicOfBoardRoundtrip(t *testing.T) {
	for _, topic := range Topics {
		for _, b := range subredditsByTopic[topic] {
			if got := TopicOfBoard(b); got != topic {
				t.Errorf("TopicOfBoard(%s) = %q, want %q", b, got, topic)
			}
		}
	}
	if TopicOfBoard("not-a-board") != "" {
		t.Error("unknown board must map to empty topic")
	}
}

func TestScaled(t *testing.T) {
	base := DefaultConfig()
	half := base.Scaled(0.5)
	if half.RedditUsers != base.RedditUsers/2 {
		t.Errorf("Scaled reddit = %d", half.RedditUsers)
	}
	tiny := base.Scaled(0.00001)
	if tiny.RedditUsers < 1 {
		t.Error("Scaled must keep at least one user")
	}
}

func TestContradictsAndConsistent(t *testing.T) {
	a := Fact{FactAge, "20"}
	b := Fact{FactAge, "34"}
	c := Fact{FactCity, "miami"}
	if !Contradicts(a, b) || Contradicts(a, c) || Contradicts(a, a) {
		t.Error("Contradicts wrong")
	}
	if !Consistent(a, a) || Consistent(a, b) || Consistent(a, c) {
		t.Error("Consistent wrong")
	}
}
