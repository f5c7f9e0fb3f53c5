package normalize

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"darklight/internal/forum"
)

// messyDataset builds a dataset that exercises every pipeline step: bots,
// duplicate bodies, quotes, edit marks, PGP blocks, mail addresses, URLs,
// emoji, overlong tokens, short messages, spam, and non-English text —
// spread over enough aliases that every worker chunk is non-trivial.
func messyDataset(aliases int) *forum.Dataset {
	d := forum.NewDataset("Messy", forum.PlatformReddit)
	english := "this is a perfectly normal english sentence about shipping and quality with plenty of distinct words in it"
	variants := []string{
		english,
		"> quoted line from someone else\n" + english,
		"[quote=bob]their words here[/quote] " + english,
		english + "\nEdit by someone: fixed a typo",
		"reach me at vendor+orders@proton-mail.com " + english,
		"see https://www.reddit.com/r/x/comments/1 " + english,
		english + " 🚀🔥 great stuff 👍",
		"before " + strings.Repeat("=", 60) + " after " + english,
		"short msg",
		strings.Repeat("buy now ", 12),
		"la calidad era buena pero el envío tardó demasiado tiempo esta vez la verdad es que no volvería a comprar",
		"verify my key\n-----BEGIN PGP PUBLIC KEY BLOCK-----\nAAAA\nBBBB\n-----END PGP PUBLIC KEY BLOCK-----\n" + english,
		"   " + english + "   ",
	}
	for i := 0; i < aliases; i++ {
		name := fmt.Sprintf("user%03d", i)
		if i%17 == 0 {
			name = fmt.Sprintf("tipbot%d", i)
		}
		a := forum.Alias{Name: name}
		for j := 0; j < 6; j++ {
			body := variants[(i*3+j)%len(variants)]
			if j == 5 && i%4 == 0 {
				body = variants[(i*3)%len(variants)] // duplicate of message 0
			}
			a.Messages = append(a.Messages, forum.Message{
				ID:       fmt.Sprintf("%s-%d", name, j),
				Author:   name,
				Body:     body,
				PostedAt: t0.Add(time.Duration(i*13+j) * time.Minute),
			})
		}
		d.Add(a)
	}
	return d
}

func cloneDataset(d *forum.Dataset) *forum.Dataset {
	out := forum.NewDataset(d.Name, d.Platform)
	for i := range d.Aliases {
		a := d.Aliases[i]
		msgs := make([]forum.Message, len(a.Messages))
		copy(msgs, a.Messages)
		a.Messages = msgs
		out.Aliases = append(out.Aliases, a)
	}
	return out
}

// TestRunParallelMatchesSequential pins the fan-out to the one-worker run
// (the same loop over one chunk, in input order): for every worker count
// the surviving aliases, every message body and timestamp, and every Report
// counter must be bit-identical to Workers=1.
func TestRunParallelMatchesSequential(t *testing.T) {
	base := messyDataset(101)

	seqData := cloneDataset(base)
	seqReport := NewPipeline(WithWorkers(1)).Run(seqData)

	for _, workers := range []int{2, 3, 8, 64, 1000} {
		parData := cloneDataset(base)
		parReport := NewPipeline(WithWorkers(workers)).Run(parData)
		if !reflect.DeepEqual(parReport, seqReport) {
			t.Errorf("Workers=%d report diverges:\n%v\nvs sequential:\n%v", workers, parReport, seqReport)
		}
		if !reflect.DeepEqual(parData, seqData) {
			t.Errorf("Workers=%d dataset diverges from sequential run", workers)
		}
	}
}

// TestRunParallelEmptyAndTiny covers the degenerate fan-outs: zero aliases
// (no worker spawned, for any worker setting, and still one zero row per
// step plus the final sweep) and fewer aliases than workers.
func TestRunParallelEmptyAndTiny(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		empty := forum.NewDataset("Empty", forum.PlatformReddit)
		p := NewPipeline(WithWorkers(workers))
		r := p.Run(empty)
		if empty.Len() != 0 {
			t.Errorf("Workers=%d: empty dataset grew aliases", workers)
		}
		want := &Report{}
		for _, name := range append(p.Steps(), "drop-empty-aliases") {
			want.Steps = append(want.Steps, StepReport{Name: name})
		}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("Workers=%d: empty dataset reports\n%v\nwant one zero row per step:\n%v", workers, r, want)
		}
	}

	tiny := messyDataset(2)
	seq := cloneDataset(tiny)
	seqR := NewPipeline(WithWorkers(1)).Run(seq)
	parR := NewPipeline(WithWorkers(8)).Run(tiny)
	if !reflect.DeepEqual(parR, seqR) || !reflect.DeepEqual(tiny, seq) {
		t.Errorf("tiny dataset diverges between Workers=1 and Workers=8")
	}
}
