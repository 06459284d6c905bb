package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"warp/internal/attacks"
	"warp/internal/core"
	"warp/internal/sqldb"
	"warp/internal/workload"
)

const (
	// repairUsers, with three victims and the Clickjacking attack, is the
	// paper's §8.2 history.
	repairUsers = 100
	// liveUser and livePage are added after the history is recorded, so
	// no recorded visit touches them.
	liveUser = "live"
	livePage = "LivePage"
	liveSID  = "live-session"
	// minRounds is the fewest repairs a repair-online run measures.
	minRounds = 3
	// liveThink is the live client's pause between visits. With none, the
	// repair re-executes the live client's writes as fast as it makes
	// them and runs about 20x longer (README.md, "What it exposes").
	liveThink = 2 * time.Millisecond
)

// setupRepair records the seeded history and logs the live client in.
// workers is Config.RepairWorkers (0: the default, GOMAXPROCS).
func setupRepair(seed int64, workers int, traced bool) (*attacks.Env, *client, error) {
	res, err := workload.Run(workload.Config{Users: repairUsers, Victims: 3, Seed: seed,
		Scenario: attacks.Clickjacking(), RepairWorkers: workers})
	if err != nil {
		return nil, nil, err
	}
	env := res.Env
	if err := env.App.CreateUser(liveUser, "pw-"+liveUser, false); err != nil {
		return nil, nil, err
	}
	if err := env.App.CreatePage(livePage, "the live client's page", false); err != nil {
		return nil, nil, err
	}
	// The live client's session is seeded like the user and the page,
	// not logged in through the form: a recorded login would sit in the
	// repaired history, and every later live request reads the session
	// row its re-execution rewrites (README.md, "What it exposes").
	uid, _, err := env.W.DB.Exec("SELECT user_id FROM users WHERE name = ?", sqldb.Text(liveUser))
	if err != nil {
		return nil, nil, err
	}
	if _, _, err := env.W.DB.Exec("INSERT INTO sessions (sid, user_id) VALUES (?, ?)",
		sqldb.Text(liveSID), uid.FirstValue()); err != nil {
		return nil, nil, err
	}
	c := newClient(env.W, seed, traced)
	c.b.SetCookie("sid", liveSID)
	return env, c, nil
}

// clickjackingPatch applies the Clickjacking patch retroactively.
func clickjackingPatch(env *attacks.Env) (*core.Report, error) {
	v, ok := env.App.VulnerabilityByKind("Clickjacking")
	if !ok {
		return nil, fmt.Errorf("no Clickjacking patch")
	}
	return env.W.RetroPatch(v.File, v.Patch)
}

// pageRows returns every pages row except the live client's, one string
// per row in page_id order.
func pageRows(w *core.Warp) ([]string, error) {
	res, _, err := w.DB.Exec("SELECT page_id, title, lang, last_editor, protected, content FROM pages ORDER BY page_id")
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, r := range res.Rows {
		if r[1].AsText() == livePage {
			continue
		}
		cols := make([]string, len(r))
		for i, v := range r {
			cols[i] = v.String()
		}
		rows = append(rows, strings.Join(cols, "|"))
	}
	return rows, nil
}

// serialOracle repairs the same seeded history with the serial engine,
// with no live client, and returns its final pages rows and repair time.
func serialOracle(seed int64) ([]string, time.Duration, error) {
	env, _, err := setupRepair(seed, 1, false)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := clickjackingPatch(env); err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	rows, err := pageRows(env.W)
	return rows, took, err
}

func runRepair(o runOpts) (*measured, error) {
	m := newMeasured(o.traced)
	want, serial, err := serialOracle(o.seed)
	if err != nil {
		return nil, fmt.Errorf("serial oracle: %w", err)
	}
	// perRound collects each traced round's repair figures; the run
	// reports their medians.
	perRound := map[string][]float64{}
	var repairTotal time.Duration
	for round := 0; round < minRounds || repairTotal < o.budget.d; round++ {
		runtime.GC()
		start := time.Now()
		env, c, err := setupRepair(o.seed, 0, o.traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
		w := env.W
		g := newGen(o.seed, []string{livePage}, 0)
		v := newVisits()

		runtime.GC()
		c.startWindow()
		before := takeSnapshot(w)
		stop, done := make(chan struct{}), make(chan struct{})
		var clientS float64
		go func() {
			defer close(done)
			t0 := time.Now()
			for {
				select {
				case <-stop:
					clientS = time.Since(t0).Seconds()
					return
				default:
				}
				c.run(g.next(), v)
				time.Sleep(liveThink)
			}
		}()
		t0 := time.Now()
		rep, err := clickjackingPatch(env)
		d := time.Since(t0)
		close(stop)
		<-done
		if err != nil {
			return nil, fmt.Errorf("repair: %w", err)
		}
		repairTotal += d
		fmt.Fprintf(os.Stderr, "round %d: setup %.3fs, repair %.3fs, live visits %d: %v\n",
			round, m.setupS[round], d.Seconds(), v.n(), rep)
		m.windowS += clientS
		m.heap()
		after := takeSnapshot(w)
		m.logB += float64(logBytes(after.stor) - logBytes(before.stor))
		m.v.merge(v)

		got, err := pageRows(w)
		if err != nil {
			return nil, err
		}
		m.check(strings.Join(got, "\n") == strings.Join(want, "\n"))
		if text, ok := v.acked[livePage]; ok {
			m.check(pageHolds(w, livePage, text))
		}

		if o.traced {
			m.acc.add(c, v, delta{before, after})
			for name, x := range map[string]float64{
				"core.repair_s":                  d.Seconds(),
				"core.repair_visits_replayed":    float64(rep.PageVisitsReplayed),
				"core.repair_runs_reexecuted":    float64(rep.AppRunsReexecuted),
				"core.repair_queries_reexecuted": float64(rep.QueriesReexecuted),
				"core.repair_reexec_frac":        ratio(float64(rep.AppRunsReexecuted), float64(rep.TotalAppRuns)),
				"core.repair_query_reexec_frac":  ratio(float64(rep.QueriesReexecuted), float64(rep.TotalQueries)),
				"core.repair_conflicts":          float64(len(rep.Conflicts)),
				"history.nodes_loaded":           float64(rep.GraphNodesLoaded),
				"history.actions":                float64(before.actions),
			} {
				perRound[name] = append(perRound[name], x)
			}
			if round == 0 {
				if err := probe(w, o.seed, c, livePage, m.layer); err != nil {
					return nil, err
				}
			}
		}
	}
	if o.traced {
		for name, xs := range perRound {
			m.layer[name] = median(xs)
		}
		m.layer["core.repair_serial_s"] = serial.Seconds()
	}
	return m, nil
}
