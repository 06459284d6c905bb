package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// op is one client action: a page read, or an edit that opens the edit
// form, replaces the page text and submits it.
type op struct {
	edit  bool
	title string
	text  string
}

// gen is the seeded request generator. The program under test sees only
// the ops it yields; the same seed yields the same sequence.
type gen struct {
	rng   *rand.Rand
	zipf  *rand.Zipf // nil: pages are drawn uniformly
	pages []string   // in popularity order when zipf is set
	n     int
}

// words is the vocabulary edit texts are drawn from. Only letters and
// spaces, so the wiki's save-time HTML escaping leaves texts unchanged and
// the output checks can compare them byte for byte.
var words = strings.Fields(`alpha bravo charlie delta echo foxtrot golf hotel
india juliet kilo lima mike november oscar papa quebec romeo sierra tango
uniform victor whiskey xray yankee zulu`)

// newGen returns a generator over pages. With zipfS > 1 page popularity
// follows a Zipf law of that exponent, the most popular page chosen by the
// seed; otherwise pages are drawn uniformly.
func newGen(seed int64, pages []string, zipfS float64) *gen {
	rng := rand.New(rand.NewSource(seed))
	g := &gen{rng: rng, pages: append([]string{}, pages...)}
	rng.Shuffle(len(g.pages), func(i, j int) { g.pages[i], g.pages[j] = g.pages[j], g.pages[i] })
	if zipfS > 1 {
		g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(g.pages)-1))
	}
	return g
}

// next returns the next op. Reads and edits alternate.
func (g *gen) next() op {
	var i int
	if g.zipf != nil {
		i = int(g.zipf.Uint64())
	} else {
		i = g.rng.Intn(len(g.pages))
	}
	o := op{edit: g.n%2 == 1, title: g.pages[i]}
	if o.edit {
		ws := make([]string, 8)
		for k := range ws {
			ws[k] = words[g.rng.Intn(len(words))]
		}
		o.text = fmt.Sprintf("edit %d %s", g.n, strings.Join(ws, " "))
	}
	g.n++
	return o
}
