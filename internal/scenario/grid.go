package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Grid is a multi-spec campaign as data: a base spec and axes of
// labelled points, each a JSON merge patch (RFC 7386) on the base. Its
// cells are the cross product of the axes, first axis outermost. A cell
// is the base with one point of each axis merged in, in axis order,
// decoded as strictly as a spec file, named base.name/label/label... and
// validated; Sweep runs the cells.
//
// A patch replaces what it names: objects merge member by member, null
// deletes a member, and an array or a scalar replaces the member whole,
// so a point that reseeds one job restates the jobs. Numbers keep the
// digits the file wrote them with, so a 64-bit seed survives the merge.
type Grid struct {
	Base json.RawMessage `json:"base"`
	Axes [][]GridPoint   `json:"axes"`
}

// GridPoint is one point of a grid axis.
type GridPoint struct {
	// Label names the point in its cells' names; it is unique within its
	// axis.
	Label string `json:"label"`
	// Patch is the merge patch the point applies. It may not set the
	// name: a cell is named by its labels.
	Patch json.RawMessage `json:"patch"`
}

// cells returns each cell's point on every axis, first axis outermost.
func (g *Grid) cells() [][]GridPoint {
	cells := [][]GridPoint{nil}
	for _, axis := range g.Axes {
		next := make([][]GridPoint, 0, len(cells)*len(axis))
		for _, cell := range cells {
			for _, p := range axis {
				next = append(next, append(slices.Clip(cell), p))
			}
		}
		cells = next
	}
	return cells
}

// Labels returns each cell's labels, one per axis, in the order Specs
// returns the cells.
func (g *Grid) Labels() [][]string {
	var labels [][]string
	for _, cell := range g.cells() {
		var l []string
		for _, p := range cell {
			l = append(l, p.Label)
		}
		labels = append(labels, l)
	}
	return labels
}

// Specs returns every cell, decoded and validated, or the first problem
// the grid has: an axis without points, an empty or repeated label, or a
// cell, named by its labels, whose base or patch is missing, whose patch
// sets the name, or that does not decode or validate. It fails before
// any cell runs.
func (g *Grid) Specs() ([]Spec, error) {
	for i, axis := range g.Axes {
		if len(axis) == 0 {
			return nil, fmt.Errorf("scenario: grid axis %d has no points", i)
		}
		seen := make(map[string]bool, len(axis))
		for _, p := range axis {
			if p.Label == "" || seen[p.Label] {
				return nil, fmt.Errorf("scenario: grid axis %d has an empty or repeated label %q", i, p.Label)
			}
			seen[p.Label] = true
		}
	}
	labels := g.Labels()
	specs := make([]Spec, 0, len(labels))
	for i, cell := range g.cells() {
		spec, err := g.spec(cell, labels[i])
		if err != nil {
			return nil, fmt.Errorf("scenario: grid cell %s: %w", strings.Join(labels[i], "/"), err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// spec merges a cell's points into a fresh decode of the base, in axis
// order, and decodes, names and validates the result.
func (g *Grid) spec(cell []GridPoint, labels []string) (Spec, error) {
	doc, err := decodeNumbers(g.Base)
	if err != nil {
		return Spec{}, fmt.Errorf("base: %w", err)
	}
	for _, p := range cell {
		patch, err := decodeNumbers(p.Patch)
		if err != nil {
			return Spec{}, fmt.Errorf("point %q: %w", p.Label, err)
		}
		if obj, ok := patch.(map[string]any); ok {
			if _, ok := obj["name"]; ok {
				return Spec{}, fmt.Errorf("point %q sets the name (a cell is named by its labels)", p.Label)
			}
		}
		doc = mergePatch(doc, patch)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return Spec{}, err
	}
	var spec Spec
	if err := DecodeStrict(bytes.NewReader(data), &spec); err != nil {
		return Spec{}, err
	}
	spec.Name = strings.Join(append([]string{spec.Name}, labels...), "/")
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// decodeNumbers decodes one JSON value with its numbers as json.Number,
// so re-encoding it writes the digits it read.
func decodeNumbers(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, errors.New("missing")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// mergePatch applies an RFC 7386 merge patch to target and returns the
// result. It reuses target's objects, so target must be a fresh decode.
func mergePatch(target, patch any) any {
	p, ok := patch.(map[string]any)
	if !ok {
		return patch
	}
	t, ok := target.(map[string]any)
	if !ok {
		t = make(map[string]any, len(p))
	}
	for k, v := range p {
		if v == nil {
			delete(t, k)
		} else {
			t[k] = mergePatch(t[k], v)
		}
	}
	return t
}
