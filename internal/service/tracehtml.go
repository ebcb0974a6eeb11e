package service

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"time"

	"adahealth/internal/core"
)

// WriteTraceHTML renders a TraceDump — the same stage-schedule
// encoding the JSON status serves — as a self-contained HTML Gantt /
// flame view: one row per stage in start order on a shared time axis
// (inline SVG, no external assets), so overlapping bars are the DAG
// stages that actually ran concurrently. GET
// /v1/analyses/{id}/trace.html serves it for finished jobs;
// `adahealth -trace-html` writes the identical document offline.
func WriteTraceHTML(w io.Writer, d TraceDump) error {
	return traceTemplate.Execute(w, newTraceView(d))
}

// Layout constants of the SVG (CSS pixels).
const (
	traceChartW  = 760.0 // bar area width
	traceLabelW  = 190.0 // stage-name gutter
	traceRowH    = 26.0
	traceAxisH   = 26.0
	traceBarPad  = 5.0
	traceMinBarW = 2.0 // a microsecond stage still gets a visible sliver
)

// traceBar is one stage row, positioned in final SVG coordinates so
// the template stays arithmetic-free.
type traceBar struct {
	Stage    string
	X, Y, W  float64
	TextX    float64
	TextY    float64
	Inside   bool // duration label fits inside the bar
	Duration string
	Title    string // hover tooltip
}

// traceTick is one time-axis gridline.
type traceTick struct {
	X     float64
	Label string
}

type traceView struct {
	Dataset     string
	Concurrency int
	StageCount  int
	Total       string
	Empty       bool
	SVGWidth    float64
	SVGHeight   float64
	AxisY       float64
	GridBottom  float64
	Bars        []traceBar
	Ticks       []traceTick
}

func newTraceView(d TraceDump) traceView {
	v := traceView{
		Dataset:     d.Dataset,
		Concurrency: d.StageConcurrency,
		StageCount:  len(d.Stages),
		SVGWidth:    traceLabelW + traceChartW + 20,
	}
	if len(d.Stages) == 0 {
		v.Empty = true
		v.SVGHeight = traceAxisH + traceRowH
		return v
	}

	stages := append([]core.StageTrace(nil), d.Stages...)
	sort.SliceStable(stages, func(i, j int) bool {
		if !stages[i].Start.Equal(stages[j].Start) {
			return stages[i].Start.Before(stages[j].Start)
		}
		return stages[i].End.Before(stages[j].End)
	})

	min, max := stages[0].Start, stages[0].End
	for _, tr := range stages {
		if tr.Start.Before(min) {
			min = tr.Start
		}
		if tr.End.After(max) {
			max = tr.End
		}
	}
	span := max.Sub(min)
	if span <= 0 {
		span = time.Nanosecond
	}
	v.Total = formatDur(span)
	scale := traceChartW / float64(span)

	v.AxisY = traceAxisH - 8
	v.GridBottom = traceAxisH + float64(len(stages))*traceRowH
	v.SVGHeight = v.GridBottom + 10

	for i, tr := range stages {
		x := traceLabelW + float64(tr.Start.Sub(min))*scale
		w := float64(tr.End.Sub(tr.Start)) * scale
		if w < traceMinBarW {
			w = traceMinBarW
		}
		b := traceBar{
			Stage:    tr.Stage,
			X:        x,
			Y:        traceAxisH + float64(i)*traceRowH + traceBarPad,
			W:        w,
			TextY:    traceAxisH + float64(i)*traceRowH + traceRowH/2 + 4,
			Duration: formatDur(tr.End.Sub(tr.Start)),
			Title: fmt.Sprintf("%s: %s, +%s after t0",
				tr.Stage, formatDur(tr.End.Sub(tr.Start)), formatDur(tr.Start.Sub(min))),
		}
		// Wide bars carry their duration inside; narrow ones to the
		// right (or to the left at the chart's edge).
		switch {
		case w >= 90:
			b.Inside, b.TextX = true, x+6
		case x+w+70 <= traceLabelW+traceChartW:
			b.TextX = x + w + 5
		default:
			b.TextX = x - 5
		}
		v.Bars = append(v.Bars, b)
	}

	for i := 0; i <= 8; i++ {
		frac := float64(i) / 8
		v.Ticks = append(v.Ticks, traceTick{
			X:     traceLabelW + frac*traceChartW,
			Label: formatDur(time.Duration(frac * float64(span))),
		})
	}
	return v
}

func formatDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

var traceTemplate = template.Must(template.New("trace").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>adahealth stage trace — {{.Dataset}}</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 24px; color: #1b1f24; }
h1 { font-size: 18px; margin: 0 0 4px; }
.meta { color: #57606a; margin-bottom: 16px; }
.meta b { color: #1b1f24; }
svg { background: #fff; border: 1px solid #d0d7de; border-radius: 6px; }
.stage-label { font: 12px system-ui, sans-serif; fill: #1b1f24; }
.dur { font: 11px system-ui, sans-serif; fill: #57606a; }
.dur.inside { fill: #fff; }
.tick-label { font: 10px system-ui, sans-serif; fill: #57606a; }
.grid { stroke: #eaeef2; stroke-width: 1; }
.bar { fill: #4e79a7; }
.legend { margin-top: 10px; color: #57606a; font-size: 12px; }
.swatch { display: inline-block; width: 10px; height: 10px; border-radius: 2px; margin-right: 4px; }
</style>
</head>
<body>
<h1>Stage schedule — {{.Dataset}}</h1>
<div class="meta">
  <b>{{.StageCount}}</b> stages · total wall <b>{{.Total}}</b> ·
  stage concurrency <b>{{.Concurrency}}</b>
</div>
{{if .Empty}}
<p>No stage traces were recorded for this analysis.</p>
{{else}}
<svg width="{{printf "%.0f" .SVGWidth}}" height="{{printf "%.0f" .SVGHeight}}"
     viewBox="0 0 {{printf "%.0f" .SVGWidth}} {{printf "%.0f" .SVGHeight}}" role="img"
     aria-label="Gantt chart of analysis stages">
{{range .Ticks}}  <line class="grid" x1="{{printf "%.1f" .X}}" y1="{{$.AxisY}}" x2="{{printf "%.1f" .X}}" y2="{{printf "%.1f" $.GridBottom}}"/>
  <text class="tick-label" x="{{printf "%.1f" .X}}" y="{{printf "%.1f" $.AxisY}}" text-anchor="middle">{{.Label}}</text>
{{end}}
{{range .Bars}}  <text class="stage-label" x="8" y="{{printf "%.1f" .TextY}}">{{.Stage}}</text>
  <rect class="bar" x="{{printf "%.1f" .X}}" y="{{printf "%.1f" .Y}}" width="{{printf "%.1f" .W}}" height="16" rx="2"><title>{{.Title}}</title></rect>
  <text class="dur{{if .Inside}} inside{{end}}" x="{{printf "%.1f" .TextX}}" y="{{printf "%.1f" .TextY}}"{{if not .Inside}}{{if lt .TextX .X}} text-anchor="end"{{end}}{{end}}>{{.Duration}}</text>
{{end}}</svg>
<div class="legend">
  <span class="swatch" style="background:#4e79a7"></span>stage execution interval
  &nbsp;&nbsp;— overlapping rows ran concurrently on the stage pool
</div>
{{end}}
</body>
</html>
`))
