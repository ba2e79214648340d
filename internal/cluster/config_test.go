package cluster

import (
	"strings"
	"testing"

	"progresscap/internal/rapl"
)

func TestConfigValidate(t *testing.T) {
	var c Config
	if err := c.Validate(); err != nil {
		t.Fatalf("zero config: %v", err)
	}
	if c.QuarantineCapW != DefaultQuarantineCapW {
		t.Errorf("default not filled: %v", c.QuarantineCapW)
	}

	neg := Config{QuarantineCapW: -1}
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Errorf("negative cap accepted: %v", err)
	}
	hot := Config{QuarantineCapW: rapl.FirmwareDefaultCapW}
	if err := hot.Validate(); err == nil || !strings.Contains(err.Error(), "TDP") {
		t.Errorf("cap at TDP accepted: %v", err)
	}
}

func TestNewLeasedClusterRejectsBadConfig(t *testing.T) {
	for _, cfg := range []LeasedConfig{
		{Cluster: Config{QuarantineCapW: -5}, Policy: EqualSplit{}, Budget: ConstantBudget(100)},
		{Policy: EqualSplit{}, Budget: ConstantBudget(100), LeaseTTL: Epoch / 2},
		{Budget: ConstantBudget(100)},
	} {
		if _, err := NewLeasedCluster(cfg, newLeasedTestNode(t, "n1", 1)); err == nil {
			t.Errorf("bad config %+v accepted", cfg)
		}
	}
}
