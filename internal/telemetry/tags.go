package telemetry

import (
	"sort"
	"strings"
)

// Metric tags give registry instruments dimensions. A component attaches
// its counters and gauges under its tag set (Registry.Attach, Registry.Gauge)
// and the registry reports each under the canonical tagged name —
//
//	lsm.batch_applies{region=iot,00001,server=2}
//
// and rolls it up into the base name, which reports the sum over every tag
// set. Tagged series flow through every existing surface (snapshots, the
// interval ticker, the CSV export, /metrics) with no schema change; readers
// that want the cluster total read the base name, and report code that
// wants the dimensional view parses tagged names back apart with
// SplitTagged.

// Tag is one metric dimension, e.g. {Key: "region", Value: "iot,00001"}.
type Tag struct {
	Key   string
	Value string
}

// Tagged renders a metric name with its tag set in canonical form: tags
// sorted by key, rendered "name{k1=v1,k2=v2}". With no tags it returns name
// unchanged. Tag keys must not contain '=' or '}'; values may contain
// anything except '}' (region names contain commas, so the parse side splits
// on "=" boundaries, not commas).
func Tagged(name string, tags ...Tag) string {
	if len(tags) == 0 {
		return name
	}
	ts := append([]Tag(nil), tags...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Key < ts[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, t := range ts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.Key)
		b.WriteByte('=')
		b.WriteString(t.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// SplitTagged parses a canonical tagged name back into the base metric name
// and its tags. Untagged names return (name, nil). Tag values may contain
// commas (region names do), so a value runs until the ",key=" of the next
// tag or the closing brace.
func SplitTagged(full string) (base string, tags []Tag) {
	open := strings.IndexByte(full, '{')
	if open < 0 || !strings.HasSuffix(full, "}") {
		return full, nil
	}
	base = full[:open]
	body := full[open+1 : len(full)-1]
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return full, nil // malformed; treat as untagged
		}
		key := body[:eq]
		rest := body[eq+1:]
		// The value ends at the next ",k=" boundary or the end of the body.
		end := len(rest)
		for i := 0; i < len(rest); i++ {
			if rest[i] != ',' {
				continue
			}
			if nextEq := strings.IndexByte(rest[i+1:], '='); nextEq >= 0 &&
				!strings.ContainsAny(rest[i+1:i+1+nextEq], ",") {
				end = i
				break
			}
		}
		tags = append(tags, Tag{Key: key, Value: rest[:end]})
		if end == len(rest) {
			break
		}
		body = rest[end+1:]
	}
	return base, tags
}
