package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples,
// sorting them in place, and the number of samples it was taken from. An
// empty sample gives 0.
func percentile(samples []float64, p float64) (float64, int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return samples[i], n
}

// qerror is the factor by which est misses actual: max(est/actual,
// actual/est). Both sides are floored at 1, so an empty result and an
// estimate below one row compare as a cardinality of one rather than
// dividing by zero.
func qerror(est, actual float64) float64 {
	e, a := math.Max(est, 1), math.Max(actual, 1)
	if e > a {
		return e / a
	}
	return a / e
}

// validMetricName reports whether s is a metric name the benchmark may
// print: a letter or digit first, then letters, digits, '_', '.' and '-',
// at most 64 bytes.
func validMetricName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '_' || c == '.' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// ratio divides, reporting 0 when the base is 0 (the printed base says why).
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// mean is the arithmetic mean of vs; 0 for none.
func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return ratio(sum, float64(len(vs)))
}

// scrape is one parsed GET /metrics exposition: every sample keyed by its
// series, "name" or "name{label="v",...}" exactly as the server printed it.
type scrape map[string]float64

func parseScrape(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// sum adds every series of the family name whose labels contain each of the
// given label="value" fragments.
func (s scrape) sum(name string, labels ...string) float64 {
	var t float64
	for k, v := range s {
		if !seriesOf(k, name) {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

func seriesOf(key, name string) bool {
	return key == name || strings.HasPrefix(key, name+"{")
}

// delta is after minus before for one family (see sum).
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// histQuantile estimates the q-quantile of the observations a histogram
// family received between two scrapes, as the upper edge of the bucket
// holding that rank (the resolution the exposition gives).
func histQuantile(before, after scrape, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		if !seriesOf(k, name+"_bucket") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		leText := k[i+4 : strings.IndexByte(k[i+4:], '"')+i+4]
		le, err := strconv.ParseFloat(leText, 64)
		if err != nil {
			continue
		}
		prev, ok := before[k]
		if !ok {
			// The exposition trims trailing empty buckets, so an edge absent
			// from the earlier scrape held everything observed by then.
			prev = before[k[:i+4]+`+Inf"`+k[strings.IndexByte(k[i+4:], '"')+i+5:]]
		}
		bs = append(bs, bucket{le, v - prev})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	// Several children of one family (one per synopsis) are summed per edge.
	var merged []bucket
	for _, b := range bs {
		if len(merged) > 0 && merged[len(merged)-1].le == b.le {
			merged[len(merged)-1].n += b.n
			continue
		}
		merged = append(merged, b)
	}
	if len(merged) == 0 {
		return 0
	}
	total := merged[len(merged)-1].n
	if total <= 0 {
		return 0
	}
	for _, b := range merged {
		if b.n >= q*total {
			return b.le
		}
	}
	return merged[len(merged)-1].le
}
