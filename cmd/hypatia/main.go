// Command hypatia runs the paper-reproduction experiments and writes their
// reports and visual artifacts.
//
// Usage:
//
//	hypatia -experiment table1|fig2|fig3|fig5|fig6|fig9|fig10|fig11|fig12|fig13|bentpipe|all \
//	        [-scale quick|paper] [-out DIR]
//
// Reports print to stdout; SVG and CZML artifacts are written under -out
// (default "out").
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hypatia/internal/experiments"
	"hypatia/internal/sim"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run (table1, fig2, fig3, fig5, fig6, fig9, fig10, fig11, fig12, fig13, bentpipe, all)")
		scaleName  = flag.String("scale", "quick", "experiment horizon: quick or paper (200 s)")
		outDir     = flag.String("out", "out", "directory for SVG/CZML artifacts")
	)
	flag.Parse()

	scale := experiments.QuickScale()
	pingInterval := 20 * sim.Millisecond
	if *scaleName == "paper" {
		scale = experiments.PaperScale()
		pingInterval = sim.Millisecond
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	run := func(name string, fn func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}

	run("table1", func() error {
		rep, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return nil
	})

	run("fig2", func() error {
		cfg := experiments.ScalabilityConfig{VirtualSeconds: 1, Pairs: scale.Pairs}
		if *scaleName == "paper" {
			cfg.VirtualSeconds = 2
			cfg.Pairs = 0
		}
		_, rep, err := experiments.Fig2Scalability(cfg)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return nil
	})

	run("fig3", func() error {
		studies, rep, err := experiments.Fig3and4PathStudies(scale, pingInterval)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		for _, s := range studies {
			path := filepath.Join(*outDir, "fig3-"+slug(s.Name)+".tsv")
			if err := writePathStudyTSV(path, s); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
			chart, err := experiments.Fig3Chart(s)
			if err != nil {
				return err
			}
			if err := writeArtifact(*outDir, "fig3-"+slug(s.Name)+".svg", chart); err != nil {
				return err
			}
			chart, err = experiments.Fig4Chart(s)
			if err != nil {
				return err
			}
			if err := writeArtifact(*outDir, "fig4-"+slug(s.Name)+".svg", chart); err != nil {
				return err
			}
		}
		return nil
	})

	run("fig5", func() error {
		out, rep, err := experiments.Fig5LossVsDelayCC(scale)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		charts, err := experiments.Fig5Charts(out)
		if err != nil {
			return err
		}
		return writeArtifacts(*outDir, withExt(charts, ".svg"))
	})

	run("fig6", func() error {
		step := 1.0
		if *scaleName == "paper" {
			step = 0.1
		}
		all, rep, err := experiments.Fig6to8Analysis(scale, step)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		charts, err := experiments.Fig6to8Charts(all)
		if err != nil {
			return err
		}
		return writeArtifacts(*outDir, withExt(charts, ".svg"))
	})

	run("fig9", func() error {
		_, rep, err := experiments.Fig9TimeStepGranularity(scale)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return nil
	})

	run("fig10", func() error {
		res, rep, err := experiments.Fig10to15CrossTraffic(experiments.CrossTrafficConfig{Scale: scale})
		if err != nil {
			return err
		}
		fmt.Println(rep)
		chart, err := experiments.Fig10Chart(res)
		if err != nil {
			return err
		}
		if err := writeArtifact(*outDir, "fig10-unused-bandwidth.svg", chart); err != nil {
			return err
		}
		return writeArtifacts(*outDir, map[string]string{
			"fig14-early.svg": res.Fig14SVGEarly,
			"fig14-late.svg":  res.Fig14SVGLate,
			"fig15.svg":       res.Fig15SVG,
		})
	})

	run("fig11", func() error {
		svgs, czmls, rep, err := experiments.Fig11Trajectories()
		if err != nil {
			return err
		}
		fmt.Println(rep)
		files := map[string]string{}
		for name, svg := range svgs {
			files["fig11-"+slug(name)+".svg"] = svg
		}
		for name, czml := range czmls {
			files["fig11-"+slug(name)+".czml"] = string(czml)
		}
		return writeArtifacts(*outDir, files)
	})

	run("fig12", func() error {
		res, rep, err := experiments.Fig12GroundObserver(scale.Duration * 10)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return writeArtifacts(*outDir, map[string]string{
			"fig12-connected.svg":    res.ConnectedSVG,
			"fig12-disconnected.svg": res.DisconnectedSVG,
		})
	})

	run("fig13", func() error {
		res, rep, err := experiments.Fig13PathEvolution(scale, 1)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return writeArtifacts(*outDir, map[string]string{
			"fig13-max-rtt.svg": res.MaxSVG,
			"fig13-min-rtt.svg": res.MinSVG,
		})
	})

	run("ablation", func() error {
		_, rep, err := experiments.AblationMultipath(4, scale.Pairs, 0)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		_, rep, err = experiments.AblationGSLPolicy(scale.Pairs, scale.Duration, 5)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return nil
	})

	run("coverage", func() error {
		rep, err := experiments.CoverageReport(scale.Duration * 10)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return nil
	})

	run("bentpipe", func() error {
		res, rep, err := experiments.AppendixBentPipe(experiments.BentPipeConfig{Scale: scale})
		if err != nil {
			return err
		}
		fmt.Println(rep)
		chart, err := experiments.Fig18Chart(res)
		if err != nil {
			return err
		}
		if err := writeArtifact(*outDir, "fig18-rtt.svg", chart); err != nil {
			return err
		}
		chart, err = experiments.Fig19Chart(res)
		if err != nil {
			return err
		}
		if err := writeArtifact(*outDir, "fig19-cwnd.svg", chart); err != nil {
			return err
		}
		return writeArtifacts(*outDir, map[string]string{
			"fig16-isl-path.svg":  res.ISLPathSVG,
			"fig16-bent-path.svg": res.BentPathSVG,
		})
	})
}

// writePathStudyTSV writes a Fig 3 study's series as TSV: time, computed
// RTT, ping RTT.
func writePathStudyTSV(path string, s *experiments.PathStudy) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// The close error matters on a written file: buffered data is flushed
	// here, and a full disk would otherwise pass silently.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if _, err := fmt.Fprintln(f, "# t_s\tcomputed_rtt_s\tping_rtt_s"); err != nil {
		return err
	}
	for _, p := range s.Pings {
		idx := int(p.SentAt.Seconds() / s.Step)
		if idx >= len(s.ComputedRTT) {
			idx = len(s.ComputedRTT) - 1
		}
		rtt := 0.0
		if p.Replied {
			rtt = p.RTT.Seconds()
		}
		if _, err := fmt.Fprintf(f, "%.3f\t%.6f\t%.6f\n",
			p.SentAt.Seconds(), s.ComputedRTT[idx], rtt); err != nil {
			return err
		}
	}
	return nil
}

// writeArtifact writes an SVG/text artifact under dir and logs it.
func writeArtifact(dir, name, content string) error {
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", p)
	return nil
}

// writeArtifacts writes each artifact under dir, named by its key, in sorted
// name order, so the "wrote" lines print the same on every run. An empty
// artifact (a figure the run had no data for) is skipped.
func writeArtifacts(dir string, artifacts map[string]string) error {
	names := make([]string, 0, len(artifacts))
	for name := range artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if artifacts[name] == "" {
			continue
		}
		if err := writeArtifact(dir, name, artifacts[name]); err != nil {
			return err
		}
	}
	return nil
}

// withExt returns charts keyed by file name: each chart's name plus ext.
func withExt(charts map[string]string, ext string) map[string]string {
	files := make(map[string]string, len(charts))
	for name, svg := range charts {
		files[name+ext] = svg
	}
	return files
}

func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hypatia:", err)
	os.Exit(1)
}
