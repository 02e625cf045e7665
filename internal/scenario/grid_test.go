package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestMergePatch checks mergePatch against the examples of RFC 7386,
// Appendix A: objects merge member by member, null deletes a member, and
// an array, a scalar or a non-object patch replaces its target whole.
func TestMergePatch(t *testing.T) {
	for _, tc := range []struct{ target, patch, want string }{
		{`{"a":"b"}`, `{"a":"c"}`, `{"a":"c"}`},
		{`{"a":"b"}`, `{"b":"c"}`, `{"a":"b","b":"c"}`},
		{`{"a":"b"}`, `{"a":null}`, `{}`},
		{`{"a":"b","b":"c"}`, `{"a":null}`, `{"b":"c"}`},
		{`{"a":["b"]}`, `{"a":"c"}`, `{"a":"c"}`},
		{`{"a":"c"}`, `{"a":["b"]}`, `{"a":["b"]}`},
		{`{"a":{"b":"c"}}`, `{"a":{"b":"d","c":null}}`, `{"a":{"b":"d"}}`},
		{`{"a":[{"b":"c"}]}`, `{"a":[1]}`, `{"a":[1]}`},
		{`["a","b"]`, `["c","d"]`, `["c","d"]`},
		{`{"a":"b"}`, `["c"]`, `["c"]`},
		{`{"a":"foo"}`, `null`, `null`},
		{`{"a":"foo"}`, `"bar"`, `"bar"`},
		{`{"e":null}`, `{"a":1}`, `{"a":1,"e":null}`},
		{`[1,2]`, `{"a":"b","c":null}`, `{"a":"b"}`},
		{`{}`, `{"a":{"bb":{"ccc":null}}}`, `{"a":{"bb":{}}}`},
	} {
		target, err := decodeNumbers([]byte(tc.target))
		if err != nil {
			t.Fatal(err)
		}
		patch, err := decodeNumbers([]byte(tc.patch))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(mergePatch(target, patch))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("merge %s into %s = %s, want %s", tc.patch, tc.target, got, tc.want)
		}
	}
}

// rackGrid is a 2 × 2 grid over a generated rack's size and seed, then
// its inlet spread, with the axes given as JSON.
func rackGrid(t *testing.T, axes string) *Grid {
	t.Helper()
	var g Grid
	src := `{"base": {"kind": "fleet", "name": "rack", "duration": 60, "fleet": {"layout": ["cold", "hot"], "recirc": 0.01}}, "axes": ` + axes + `}`
	if err := DecodeStrict(strings.NewReader(src), &g); err != nil {
		t.Fatal(err)
	}
	return &g
}

const rackAxes = `[
	[{"label": "size=2", "patch": {"fleet": {"size": 2, "seed": -972091869234291113}}},
	 {"label": "size=3", "patch": {"fleet": {"size": 3, "seed": 7}}}],
	[{"label": "spread=0", "patch": {}},
	 {"label": "spread=6", "patch": {"fleet": {"aisle_offsets": [0, 3, 6]}}}]
]`

// TestGridCells checks a grid's cells: the cross product with the first
// axis outermost, each named base.name/label/label and holding exactly
// its own points' patches (no cell sees another's), and a 64-bit seed
// carried exactly (through float64 it would read ...072).
func TestGridCells(t *testing.T) {
	g := rackGrid(t, rackAxes)
	specs, err := g.Specs()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name   string
		size   int
		seed   int64
		spread bool
	}{
		{"rack/size=2/spread=0", 2, -972091869234291113, false},
		{"rack/size=2/spread=6", 2, -972091869234291113, true},
		{"rack/size=3/spread=0", 3, 7, false},
		{"rack/size=3/spread=6", 3, 7, true},
	}
	labels := g.Labels()
	if len(specs) != len(want) || len(labels) != len(want) {
		t.Fatalf("%d cells and %d label sets, want %d", len(specs), len(labels), len(want))
	}
	for i, w := range want {
		s := specs[i]
		if s.Name != w.name || "rack/"+strings.Join(labels[i], "/") != w.name {
			t.Errorf("cell %d is named %q with labels %v, want %q", i, s.Name, labels[i], w.name)
		}
		if s.Fleet.Size != w.size || s.Fleet.Seed != w.seed {
			t.Errorf("%s: size %d seed %d, want %d and %d", w.name, s.Fleet.Size, s.Fleet.Seed, w.size, w.seed)
		}
		if (s.Fleet.AisleOffsets != nil) != w.spread || s.Fleet.Recirc != 0.01 || len(s.Fleet.Layout) != 2 {
			t.Errorf("%s: fleet block %+v", w.name, *s.Fleet)
		}
	}
}

// TestGridRefusals checks that a grid fails as a whole, naming what is
// wrong, before any cell exists: a cell that no longer decodes (a member
// the format dropped) or validates, a patch that sets the name, an axis
// without points, and a missing or repeated label.
func TestGridRefusals(t *testing.T) {
	for _, tc := range []struct{ name, axes, want string }{
		{"dropped member", `[[{"label": "tol", "patch": {"fleet": {"recirc_tol": 0.1}}}]]`,
			`grid cell tol: json: unknown field "recirc_tol"`},
		{"one invalid cell", `[[{"label": "n=3", "patch": {"fleet": {"size": 3}}}, {"label": "n=2", "patch": {"fleet": {"size": 2}}}],
			[{"label": "short", "patch": {"duration": 30}}, {"label": "passes=3", "patch": {"fleet": {"recirc_passes": 3}}}]]`,
			"grid cell n=2/passes=3: scenario: fleet recirc_passes 3 outside [0, 2]"},
		{"name patch", `[[{"label": "x", "patch": {"name": "other"}}]]`, `grid cell x: point "x" sets the name`},
		{"empty axis", `[[{"label": "a", "patch": {}}], []]`, "grid axis 1 has no points"},
		{"empty label", `[[{"label": "", "patch": {}}]]`, `grid axis 0 has an empty or repeated label ""`},
		{"repeated label", `[[{"label": "a", "patch": {}}, {"label": "a", "patch": {"duration": 30}}]]`,
			`grid axis 0 has an empty or repeated label "a"`},
		{"missing patch", `[[{"label": "a"}]]`, `grid cell a: point "a": missing`},
	} {
		specs, err := rackGrid(t, tc.axes).Specs()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Specs() = %d cells, %v; want an error containing %q", tc.name, len(specs), err, tc.want)
		}
		if specs != nil {
			t.Errorf("%s: returned %d cells beside the error", tc.name, len(specs))
		}
	}
}
