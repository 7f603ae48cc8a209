package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), families sorted by name, series
// within a family sorted by label value. Sampled (Func) series are
// evaluated here.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ser, fams := r.sortedSeries()
	var lastFam string
	for _, s := range ser {
		f := fams[s.family]
		if f.name != lastFam {
			if f.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
				return err
			}
			lastFam = f.name
		}
		lbl := ""
		if f.label != "" {
			lbl = fmt.Sprintf("{%s=%q}", f.label, s.labelValue)
		}
		if s.hist != nil {
			if err := writeHist(w, f, s, lbl); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl, s.read()); err != nil {
			return err
		}
	}
	return nil
}

// writeHist renders one histogram series as cumulative _bucket lines
// plus _sum and _count. Empty power-of-two buckets are elided (the
// cumulative le semantics stay correct); a final le="+Inf" is always
// written.
func writeHist(w io.Writer, f *family, s *series, lbl string) error {
	snap := s.hist.Snapshot()
	// le labels combine with the optional family label.
	inner := ""
	if f.label != "" {
		inner = fmt.Sprintf("%s=%q,", f.label, s.labelValue)
	}
	var cum int64
	for i, c := range snap.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", f.name, inner, bucketUpper(i), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", f.name, inner, snap.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.name, lbl, snap.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, lbl, snap.Count)
	return err
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// MetricPoint is one series in a JSON snapshot. Histograms carry
// quantiles instead of a raw value.
type MetricPoint struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Type  string `json:"type"`
	Value int64  `json:"value,omitempty"`
	Count int64  `json:"count,omitempty"`
	P50   int64  `json:"p50_ns,omitempty"`
	P90   int64  `json:"p90_ns,omitempty"`
	P99   int64  `json:"p99_ns,omitempty"`
}

// Snapshot evaluates every series into a JSON-friendly list, in the
// same stable order as the text exposition.
func (r *Registry) Snapshot() []MetricPoint {
	ser, fams := r.sortedSeries()
	out := make([]MetricPoint, 0, len(ser))
	for _, s := range ser {
		f := fams[s.family]
		p := MetricPoint{Name: f.name, Label: s.labelValue, Type: f.typ}
		if s.hist != nil {
			snap := s.hist.Snapshot()
			p.Count = snap.Count
			p.P50, p.P90, p.P99 = snap.P50(), snap.P90(), snap.P99()
		} else {
			p.Value = s.read()
		}
		out = append(out, p)
	}
	return out
}

// Handler serves the text exposition over HTTP (the /metrics
// endpoint of every gateway, lsdfd's included, and of lsdf-worker).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
