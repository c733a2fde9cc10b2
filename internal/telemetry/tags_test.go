package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestTaggedCanonical(t *testing.T) {
	cases := []struct {
		name string
		tags []Tag
		want string
	}{
		{"lsm.flushes", nil, "lsm.flushes"},
		{"lsm.flushes", []Tag{{Key: "region", Value: "iot,00001"}}, "lsm.flushes{region=iot,00001}"},
		// Tags render sorted by key regardless of argument order.
		{"lsm.flushes", []Tag{{Key: "server", Value: "2"}, {Key: "region", Value: "iot,00001"}},
			"lsm.flushes{region=iot,00001,server=2}"},
	}
	for _, c := range cases {
		if got := Tagged(c.name, c.tags...); got != c.want {
			t.Errorf("Tagged(%q, %v) = %q, want %q", c.name, c.tags, got, c.want)
		}
	}
}

func TestSplitTaggedRoundTrip(t *testing.T) {
	tags := []Tag{{Key: "region", Value: "iot,00001"}, {Key: "server", Value: "2"}}
	full := Tagged("lsm.batch_applies", tags...)
	base, got := SplitTagged(full)
	if base != "lsm.batch_applies" {
		t.Fatalf("base = %q", base)
	}
	if len(got) != 2 || got[0] != tags[0] || got[1] != tags[1] {
		t.Fatalf("tags = %v, want %v", got, tags)
	}

	// Untagged names pass through.
	base, got = SplitTagged("wal.appends")
	if base != "wal.appends" || got != nil {
		t.Fatalf("SplitTagged(untagged) = %q, %v", base, got)
	}
}

// TestTaggedCountersConcurrent hammers attached tagged counters from many
// goroutines, each attaching its own, while the HTTP /metrics handler
// scrapes the registry — the per-region write path racing the observability
// surface. Run under -race. Each tagged series reports its own count and the
// base name their sum, in every scrape as well as at the end.
func TestTaggedCountersConcurrent(t *testing.T) {
	reg := NewRegistry()
	mux := NewServeMux(reg)

	const writers = 8
	const perWriter = 1000

	var writerWG sync.WaitGroup
	writerWG.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writerWG.Done()
			var c Counter
			reg.Attach(&c, "lsm.batch_applies", Tag{Key: "region", Value: fmt.Sprintf("iot,%05d", w)})
			for i := 0; i < perWriter; i++ {
				c.Inc()
			}
		}(w)
	}

	stop := make(chan struct{})
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			var doc struct{ Counters map[string]int64 }
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Errorf("scrape returned invalid JSON: %v", err)
				return
			}
			var tagged int64
			for name, v := range doc.Counters {
				if base, _ := SplitTagged(name); base == "lsm.batch_applies" && name != base {
					tagged += v
				}
			}
			if total := doc.Counters["lsm.batch_applies"]; total != tagged {
				t.Errorf("scrape: roll-up %d, tagged series sum to %d", total, tagged)
				return
			}
		}
	}()

	writerWG.Wait()
	close(stop)
	scraperWG.Wait()

	for w := 0; w < writers; w++ {
		name := Tagged("lsm.batch_applies", Tag{Key: "region", Value: fmt.Sprintf("iot,%05d", w)})
		if got := reg.CounterValue(name); got != perWriter {
			t.Errorf("%s = %d, want %d", name, got, perWriter)
		}
	}
	if got := reg.Summary().Counter("lsm.batch_applies"); got != writers*perWriter {
		t.Errorf("roll-up lsm.batch_applies = %d, want %d", got, writers*perWriter)
	}
}
