package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Byte identity to the monolithic from-scratch search is what every output
// is checked for, with one allowance. On the parent commit the engine is not
// quite deterministic: the 16-bit last-hit slots of hit detection are
// cleared, when their 6-bit epoch wraps, only up to the length the current
// block needs, so a worker that has seen a larger block keeps stale stamps
// beyond it, and now and then one of them passes for a first hit of the
// current epoch. The spurious seed is extended like any other and, about
// once in 40 serve_ingest runs (small delta tiers make most clears partial),
// gives one more reported alignment: a valid one, below the E-value cutoff,
// that a search with fresh slots does not find. The allowance has exactly
// that shape: in a whole run, one hit that a search or its reference
// reports and the other does not, while every other hit of that query is
// identical, field for field and in the same order. A query on which each
// side has a hit the other lacks is a changed hit, not an extra one, and
// fails; so does a second odd hit anywhere in the run. The odd hit is
// printed and counted (blast.odd_hits). When the engine clears its slots
// fully the budget goes to 0.
const oddBudget = 1

// sameHits compares the rendered hit records of one query. Records that only
// one side has are remembered as odd when the other side has none of its
// own; anything else that differs is an error.
func (e *env) sameHits(got, want []string) error {
	gotOnly, g := split(got, want)
	wantOnly, w := split(want, got)
	if len(gotOnly) > 0 && len(wantOnly) > 0 {
		return fmt.Errorf("a hit differs: %.80s, the reference has %.80s", gotOnly[0], wantOnly[0])
	}
	if len(g) != len(w) {
		return fmt.Errorf("%d hits in common with the reference, which has %d of them: a hit is repeated", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("hit %d is %.80s, the reference has %.80s there", i, g[i], w[i])
		}
	}
	for _, h := range append(gotOnly, wantOnly...) {
		e.odd[h] = true
	}
	return nil
}

// split returns the records of list that other lacks and those it has, each
// in the order of list.
func split(list, other []string) (only, common []string) {
	in := make(map[string]bool, len(other))
	for _, h := range other {
		in[h] = true
	}
	for _, h := range list {
		if in[h] {
			common = append(common, h)
		} else {
			only = append(only, h)
		}
	}
	return only, common
}

// settleOdd books the odd hits of the run: within the budget they are
// reported, beyond it they are failures.
func (e *env) settleOdd() {
	e.set("blast.odd_hits", float64(len(e.odd)))
	for h := range e.odd {
		fmt.Printf("note: odd hit (reported by a search or its reference, not by both): %.160s\n", h)
	}
	if len(e.odd) > oddBudget {
		e.fail(len(e.odd), "%d hits reported by a search or its reference but not by both", len(e.odd))
	}
}

// replyHits returns the hit records of a single-query /search reply, or of
// the "results" member alone.
func replyHits(body []byte) ([]string, error) {
	var r struct {
		Results []struct {
			Completed bool
			Hits      []json.RawMessage
		}
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if len(r.Results) != 1 || !r.Results[0].Completed {
		return nil, fmt.Errorf("reply does not hold one completed query")
	}
	out := make([]string, len(r.Results[0].Hits))
	for i, h := range r.Results[0].Hits {
		out[i] = string(h)
	}
	return out, nil
}

// carries checks a reply against the "results" member the reference search
// renders to: byte for byte first, hit by hit if that fails.
func carries(e *env, want [][]byte) func(sample) error {
	return func(s sample) error {
		if bytes.Contains(s.body, want[s.idx]) {
			return nil
		}
		got, err := replyHits(s.body)
		if err != nil {
			return err
		}
		ref, err := replyHits([]byte("{" + strings.TrimSuffix(string(want[s.idx]), `,"stats"`) + "}"))
		if err != nil {
			return err
		}
		return e.sameHits(got, ref)
	}
}
