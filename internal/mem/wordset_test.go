package mem

import (
	"math/rand"
	"testing"
)

// TestWordSetMatchesMapModel drives a WordSet and a map+order model with
// the same random Put/Get/Reset stream and compares them after every
// step group: Get agrees on present and absent words, Words() is the
// model's first-insertion order with current values (an overwrite keeps
// its position), and Reset empties both. The three rounds draw from
// address pools that stay under the minimum table, pass 64 entries, and
// pass 1,024, so every growth step is crossed with live entries.
func TestWordSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var set WordSet
	for round, pool := range []int{40, 300, 3000} {
		model := map[Addr]uint64{}
		var order []Addr
		check := func(step int) {
			t.Helper()
			words := set.Words()
			if len(words) != len(order) {
				t.Fatalf("round %d step %d: %d words, model has %d", round, step, len(words), len(order))
			}
			for i, w := range words {
				if w.Addr != order[i] || w.Val != model[w.Addr] {
					t.Fatalf("round %d step %d: Words()[%d] = %+v, model has {%#x %d}",
						round, step, i, w, order[i], model[order[i]])
				}
			}
		}
		for step := 0; step < 4*pool; step++ {
			a := Addr(0x1000 + 8*rng.Intn(pool))
			if rng.Intn(4) != 0 {
				v := rng.Uint64()
				if _, had := model[a]; !had {
					order = append(order, a)
				}
				model[a] = v
				set.Put(a, v)
			}
			probe := Addr(0x1000 + 8*rng.Intn(2*pool)) // half the probes miss
			got, ok := set.Get(probe)
			want, had := model[probe]
			if ok != had || got != want {
				t.Fatalf("round %d step %d: Get(%#x) = %d,%v, model has %d,%v", round, step, probe, got, ok, want, had)
			}
			if step%97 == 0 {
				check(step)
			}
		}
		check(4 * pool)
		if round > 0 && len(order) <= []int{0, 64, 1024}[round] {
			t.Fatalf("round %d reached only %d entries", round, len(order))
		}
		set.Reset()
		if len(set.Words()) != 0 {
			t.Fatalf("round %d: %d words after Reset", round, len(set.Words()))
		}
		if _, ok := set.Get(order[0]); ok {
			t.Fatalf("round %d: Get finds %#x after Reset", round, order[0])
		}
	}
}

// TestWordSetReuseAllocatesNothing: once a set has reached its working
// size, refilling it after Reset allocates nothing.
func TestWordSetReuseAllocatesNothing(t *testing.T) {
	var set WordSet
	fill := func() {
		set.Reset()
		for i := 0; i < 200; i++ {
			set.Put(Addr(0x4000+8*i), uint64(i))
		}
	}
	fill()
	if n := testing.AllocsPerRun(10, fill); n != 0 {
		t.Fatalf("refilling a sized set allocates %.0f times per fill, want 0", n)
	}
}
