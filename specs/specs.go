// Package specs embeds the spec files beside it, so Go callers run the
// paper's experiments from the bytes `scenariod run -spec specs/F.json`
// reads: each run has one definition, the file.
package specs

import (
	"bytes"
	"embed"
	"fmt"

	"repro/internal/scenario"
)

//go:embed *.json
var files embed.FS

// Load decodes the named file (for example "table3.json") as strictly as
// `scenariod run` and a daemon's submit decode a spec.
func Load(name string) (scenario.Spec, error) {
	data, err := files.ReadFile(name)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("specs: %w", err)
	}
	var spec scenario.Spec
	if err := scenario.DecodeStrict(bytes.NewReader(data), &spec); err != nil {
		return scenario.Spec{}, fmt.Errorf("specs: %s: %w", name, err)
	}
	return spec, nil
}
