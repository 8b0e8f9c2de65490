package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"legalchain/internal/metrics"
)

// promSample is the process registry's exposition parsed into one
// value per series (name plus label set, as printed).
type promSample map[string]float64

func scrape() promSample {
	var buf bytes.Buffer
	metrics.Default.WritePrometheus(&buf)
	return parseProm(buf.Bytes())
}

// parseProm reads Prometheus text exposition lines `series value`.
func parseProm(text []byte) promSample {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// diff is after minus before, series by series.
func diff(before, after promSample) promSample {
	out := promSample{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add sums another window's differences into d.
func (d promSample) add(o promSample) {
	for k, v := range o {
		d[k] += v
	}
}

// histMeanMs is the mean observation of a seconds histogram over the
// windows summed in d, in milliseconds; 0 when there were none.
func histMeanMs(d promSample, name string) float64 {
	return 1000 * histMean(d, name)
}

// histMean is the mean observation of a histogram over d.
func histMean(d promSample, name string) float64 {
	n := d[name+"_count"]
	if n == 0 {
		return 0
	}
	return d[name+"_sum"] / n
}
