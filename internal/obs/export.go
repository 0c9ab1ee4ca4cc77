package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// promName sanitizes an instrument name into the Prometheus exposition
// alphabet: dots and dashes become underscores, anything else non-alphanumeric
// is dropped.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		case c == '.', c == '-', c == '/', c == ':':
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote, and newline must be escaped inside `label="..."`.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a `# HELP` string: backslash and newline only (quotes
// are legal in help text).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// promLabelSet renders a {k="v",...} block from labels plus an optional
// extra pair (the summary quantile). Returns "" when there is nothing.
func promLabelSet(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(l.Key))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// writeHeader emits `# HELP` (when registered) and `# TYPE` once per metric
// name; labeled series of the same family share one header.
func (r *Registry) writeHeader(w io.Writer, last *string, rawName, promID, kind string) error {
	if promID == *last {
		return nil
	}
	*last = promID
	if help := r.helpFor(rawName); help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", promID, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", promID, kind)
	return err
}

// WritePrometheus renders the registry in Prometheus text exposition format:
// counters and gauges as-is, histograms as summaries (quantile labels plus
// _sum and _count, seconds units). Series order is the snapshot's sorted
// order — name, then label values — so successive scrapes diff cleanly.
// Label values and help strings are escaped per the format. No-op on nil.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	last := ""
	for _, c := range snap.Counters {
		n := promName(c.Name)
		if err := r.writeHeader(w, &last, c.Name, n, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", n, promLabelSet(c.Labels, "", ""), c.Value); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		n := promName(g.Name)
		if err := r.writeHeader(w, &last, g.Name, n, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", n, g.Value); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		// Latency histograms export in seconds; value histograms (batch
		// sizes, fan-in) export their raw units.
		toUnit := func(d time.Duration) float64 { return d.Seconds() }
		n := promName(h.Name) + "_seconds"
		if h.Unit == "count" {
			toUnit = func(d time.Duration) float64 { return float64(d) }
			n = promName(h.Name)
		}
		if err := r.writeHeader(w, &last, h.Name, n, "summary"); err != nil {
			return err
		}
		for _, q := range []struct {
			label string
			v     float64
		}{
			{"0.5", toUnit(h.P50)},
			{"0.95", toUnit(h.P95)},
			{"0.99", toUnit(h.P99)},
		} {
			if _, err := fmt.Fprintf(w, "%s%s %g\n", n, promLabelSet(h.Labels, "quantile", q.label), q.v); err != nil {
				return err
			}
		}
		ls := promLabelSet(h.Labels, "", "")
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", n, ls, toUnit(h.Sum), n, ls, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the registry snapshot as indented JSON. No-op on nil.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// textName renders "name{k=v,...}" for the human-readable dump.
func textName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders a compact human-readable dump: counters, gauges, then
// histograms with count/mean/p50/p95/p99/max. Histograms with a p99
// exemplar append the linked trace id. No-op on nil.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	for _, c := range snap.Counters {
		if _, err := fmt.Fprintf(w, "%-40s %12d\n", textName(c.Name, c.Labels), c.Value); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		if _, err := fmt.Fprintf(w, "%-40s %12g\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		name := textName(h.Name, h.Labels)
		if h.Count == 0 {
			// An empty window has no percentiles; say so instead of
			// rendering a row of misleading zeros.
			if _, err := fmt.Fprintf(w, "%-40s n=0          (no samples)\n", name); err != nil {
				return err
			}
			continue
		}
		exemplar := ""
		if h.ExemplarP99 != 0 {
			exemplar = fmt.Sprintf(" p99_trace=%d", h.ExemplarP99)
		}
		if h.Unit == "count" {
			if _, err := fmt.Fprintf(w, "%-40s n=%-8d mean=%-12d p50=%-12d p95=%-12d p99=%-12d max=%d%s\n",
				name, h.Count, int64(h.Mean), int64(h.P50), int64(h.P95), int64(h.P99), int64(h.Max), exemplar); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%-40s n=%-8d mean=%-12v p50=%-12v p95=%-12v p99=%-12v max=%v%s\n",
			name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max, exemplar); err != nil {
			return err
		}
	}
	return nil
}
