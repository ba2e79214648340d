package apps

import (
	"fmt"

	"progresscap/internal/progress"
	"progresscap/internal/workload"
)

// Questions are the eight questions posed to application specialists
// (Table III).
var Questions = [8]string{
	"Is there a well-defined FOM for the application?",
	"Can we measure online performance during execution that correlates well with either FOM or the execution time?",
	"Does online performance measure progress toward an application-defined scientific goal?",
	"Is the execution time accurately predictable based on a performance model of the application?",
	"If the application is loop based, is the number of loop iterations decided prior to execution?",
	"If application is loop based, do loop iterations proceed in a uniform manner in terms of instructions executed?",
	"Does the application have multiple phases or components that are clearly demarcated from a design or performance characteristic standpoint?",
	"What system resource is the application limited by?",
}

// Info is one row of the paper's application tables: description
// (Table II), interview answers (Table IV), category and online
// performance metric (Table V), and — for the applications the paper
// could instrument — a builder for the corresponding workload model.
type Info struct {
	Name        string
	Description string
	Category    progress.Category
	Metric      string // "N/A" for Category 3
	// Answers holds the responses to Questions[0..6] ("Y"/"N", or a
	// note); Resource is the answer to question 8.
	Answers  [7]string
	Resource string
	// TableVI characterization targets (0 when the paper does not report
	// the application in Table VI).
	BetaTarget float64
	MPOTarget  float64 // absolute (e.g. 30.1e-3)
	// Build constructs the workload model at the paper's single-node
	// configuration, scaled to run for roughly the given number of
	// virtual seconds. Nil for Category 3 applications, which the paper
	// also excludes from the runtime study.
	Build func(seconds float64) *workload.Workload
}

// Runnable reports whether the application has a workload model.
func (i Info) Runnable() bool { return i.Build != nil }

// CategoryLabel returns the category as Table V prints it: the paper
// straddles CANDLE between Categories 1 and 2.
func (i Info) CategoryLabel() string {
	if i.Name == "CANDLE" {
		return "1/2"
	}
	return i.Category.String()
}

// Registry returns the paper's application set in presentation order.
// Interview answers follow the narrative of §III; the single-letter
// values match Table IV.
func Registry() []Info {
	return []Info{
		{
			Name:        "QMCPACK",
			Description: "Monte Carlo quantum chemistry code that samples particle positions randomly. Phased application.",
			Category:    progress.Category1,
			Metric:      "Blocks per second",
			Answers:     [7]string{"Y", "Y", "Y", "Y", "Y", "Y", "Y"},
			Resource:    "Compute",
			BetaTarget:  0.84,
			MPOTarget:   3.91e-3,
			Build: func(seconds float64) *workload.Workload {
				// Phase budget ¼ / ¼ / ½ at 8, 12, 16 blocks/s.
				v1 := max(2, int(seconds/4*8))
				v2 := max(2, int(seconds/4*12))
				dmc := max(2, int(seconds/2*16))
				return QMCPACK(DefaultRanks, v1, v2, dmc)
			},
		},
		{
			Name:        "OpenMC",
			Description: "Monte Carlo neutron transport code that simulates particle movement inside nuclear reactor. Phased application.",
			Category:    progress.Category1,
			Metric:      "Particles per second",
			Answers:     [7]string{"N", "Y", "Y", "Y", "Y", "Y", "Y"},
			Resource:    "Memory latency",
			BetaTarget:  0.93,
			MPOTarget:   0.20e-3,
			Build: func(seconds float64) *workload.Workload {
				active := max(2, int(seconds/1.05)-8)
				return OpenMC(DefaultRanks, 8, active, 100000)
			},
		},
		{
			Name:        "AMG",
			Description: "Iterative solver benchmark that uses algebraic multigrid preconditioning. Only the solve phase is important for performance.",
			Category:    progress.Category2,
			Metric:      "Conjugate gradient iterations per second",
			Answers:     [7]string{"N", "Y", "N", "N", "N", "Y", "N"},
			Resource:    "Memory bandwidth",
			BetaTarget:  0.52,
			MPOTarget:   30.1e-3,
			Build: func(seconds float64) *workload.Workload {
				return AMG(DefaultRanks, max(2, int(seconds*2.75)))
			},
		},
		{
			Name:        "LAMMPS",
			Description: "Molecular dynamics package that uses N-body simulation techniques. No detected phases in the application.",
			Category:    progress.Category1,
			Metric:      "Atom timesteps per second",
			Answers:     [7]string{"N", "Y", "Y", "Y", "Y", "Y", "N"},
			Resource:    "Compute",
			BetaTarget:  1.00,
			MPOTarget:   0.32e-3,
			Build: func(seconds float64) *workload.Workload {
				return LAMMPS(DefaultRanks, max(2, int(seconds*20)))
			},
		},
		{
			Name:        "CANDLE",
			Description: "Deep Learning based cancer suite. Benchmark code that uses TensorFlow to solve problems related to precision medicine for cancer.",
			Category:    progress.Category1, // "1/2" in the paper; training epochs are Category 1 online, Category 2 toward the goal
			Metric:      "Epochs per second (training phase)",
			Answers:     [7]string{"N", "Y", "N", "N", "N", "Y", "Y"},
			Resource:    "Memory bandwidth",
			Build: func(seconds float64) *workload.Workload {
				return CANDLE(DefaultRanks, max(2, int(seconds/1.25)))
			},
		},
		{
			Name:        "STREAM",
			Description: "Memory bandwidth benchmark designed to stress-test the memory subsystem.",
			Category:    progress.Category1,
			Metric:      "Iterations per second",
			Answers:     [7]string{"Y", "Y", "Y", "Y", "Y", "Y", "N"},
			Resource:    "Memory bandwidth",
			BetaTarget:  0.37,
			MPOTarget:   50.9e-3,
			Build: func(seconds float64) *workload.Workload {
				return STREAM(DefaultRanks, max(2, int(seconds*16)))
			},
		},
		{
			Name:        "URBAN",
			Description: "Collection of applications for modeling and simulation of city infrastructure and transport mechanisms. Multiphysics application where individual components run at different timescales.",
			Category:    progress.Category3,
			Metric:      "N/A",
			Answers:     [7]string{"N", "N", "N", "N", "N", "N", "Y"},
			Resource:    "Component-dependent",
		},
		{
			Name:        "Nek5000",
			Description: "Computational fluid dynamics library that is a part of larger applications.",
			Category:    progress.Category3,
			Metric:      "N/A",
			Answers:     [7]string{"N", "N", "N", "N", "Y", "N", "Y"},
			Resource:    "Compute",
		},
		{
			Name:        "HACC",
			Description: "Cosmology application that uses N-body techniques for simulation of galaxies. Many individual components with distinct performance characteristics.",
			Category:    progress.Category3,
			Metric:      "N/A",
			Answers:     [7]string{"N", "N", "N", "N", "Y", "N", "Y"},
			Resource:    "Compute",
		},
	}
}

// Lookup returns the registry entry with the given name (case-sensitive).
func Lookup(name string) (Info, error) {
	for _, info := range Registry() {
		if info.Name == name {
			return info, nil
		}
	}
	return Info{}, fmt.Errorf("apps: unknown application %q", name)
}

// RunnableNames returns the names of applications with workload models,
// in registry order.
func RunnableNames() []string {
	var out []string
	for _, info := range Registry() {
		if info.Runnable() {
			out = append(out, info.Name)
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
