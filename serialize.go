package progresscap

// JSON persistence for characterizations and fitted models, so the
// expensive two-frequency characterization (§IV-A) can run once per
// application and be reused by policy tools (cmd/characterize produces
// these files).

import (
	"encoding/json"
	"fmt"

	"progresscap/internal/model"
)

// characterizationJSON is the stable on-disk schema.
type characterizationJSON struct {
	Version      int     `json:"version"`
	App          string  `json:"app"`
	Beta         float64 `json:"beta"`
	MPO          float64 `json:"mpo"`
	BaselineRate float64 `json:"baseline_rate"`
	BaselinePkgW float64 `json:"baseline_pkg_w"`
}

const characterizationVersion = 1

// JSON serializes the characterization.
func (c Characterization) JSON() ([]byte, error) {
	return json.MarshalIndent(characterizationJSON{
		Version:      characterizationVersion,
		App:          c.App,
		Beta:         c.Beta,
		MPO:          c.MPO,
		BaselineRate: c.BaselineRate,
		BaselinePkgW: c.BaselinePkgW,
	}, "", "  ")
}

// ParseCharacterization deserializes a characterization produced by
// JSON, validating its fields.
func ParseCharacterization(data []byte) (Characterization, error) {
	var j characterizationJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return Characterization{}, fmt.Errorf("progresscap: parsing characterization: %w", err)
	}
	if j.Version != characterizationVersion {
		return Characterization{}, fmt.Errorf("progresscap: unsupported characterization version %d", j.Version)
	}
	c := Characterization{
		App:          j.App,
		Beta:         j.Beta,
		MPO:          j.MPO,
		BaselineRate: j.BaselineRate,
		BaselinePkgW: j.BaselinePkgW,
	}
	// Validate through the model constructor (β, rates, power ranges).
	if _, err := model.FromBaseline(c.Beta, c.BaselineRate, c.BaselinePkgW); err != nil {
		return Characterization{}, fmt.Errorf("progresscap: invalid characterization: %w", err)
	}
	if c.MPO < 0 {
		return Characterization{}, fmt.Errorf("progresscap: invalid MPO %v", c.MPO)
	}
	return c, nil
}

// FitModelWithAlpha is FitModel followed by fitting α to measured
// calibration points (cap in watts → measured rate), the extension the
// paper's discussion proposes instead of the fixed α=2.
func FitModelWithAlpha(c Characterization, caps []float64, rates []float64) (Model, error) {
	if len(caps) != len(rates) {
		return Model{}, fmt.Errorf("progresscap: %d caps vs %d rates", len(caps), len(rates))
	}
	base, err := model.FromBaseline(c.Beta, c.BaselineRate, c.BaselinePkgW)
	if err != nil {
		return Model{}, err
	}
	pts := make([]model.CalibrationPoint, len(caps))
	for i := range caps {
		pts[i] = model.CalibrationPoint{PkgCapW: caps[i], Rate: rates[i]}
	}
	fitted, err := model.FitAlpha(base, pts)
	if err != nil {
		return Model{}, err
	}
	return Model{p: fitted}, nil
}

// Alpha returns the model's frequency exponent.
func (m Model) Alpha() float64 { return m.p.Alpha }
