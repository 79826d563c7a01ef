package experiments

import (
	"strings"
	"testing"

	"darkarts/internal/workload"
)

// sharedCharacterization caches the expensive characterization run.
var sharedChar []workload.CharacterizationResult

func characterization(t *testing.T) []workload.CharacterizationResult {
	t.Helper()
	if sharedChar == nil {
		res, err := Characterization(2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		sharedChar = res
	}
	return sharedChar
}

func TestFigure1Shape(t *testing.T) {
	tab := Figure1()
	if len(tab.Rows) < 3 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	// MOV-like group must be the largest (paper: 56%), and XOR must appear.
	if !strings.Contains(tab.Rows[0][0], "MOV") {
		t.Errorf("dominant group = %q, want MOV-like", tab.Rows[0][0])
	}
	var sawXOR bool
	for _, r := range tab.Rows {
		if r[0] == "XOR" {
			sawXOR = true
		}
	}
	if !sawXOR {
		t.Error("XOR group missing")
	}
	// Tied groups (ROR/ROL and other) print in name order on every run.
	want := tab.String()
	for i := 0; i < 20; i++ {
		if got := Figure1().String(); got != want {
			t.Fatalf("fig1 row order differs between runs:\n%s\nvs\n%s", want, got)
		}
	}
}

func TestFigures5to11Shapes(t *testing.T) {
	res := characterization(t)
	byName := map[string]workload.CharacterizationResult{}
	for _, r := range res {
		byName[r.Name] = r
	}

	// Fig 5: AES shift-rights beat SHA-2's; both beat every SPEC entry.
	if byName["aes"].SR <= byName["sha2"].SR {
		t.Errorf("fig5: AES SR %d <= SHA-2 SR %d", byName["aes"].SR, byName["sha2"].SR)
	}
	// Fig 6: libquantum has the highest shift-left count.
	for _, r := range res {
		if r.Name != "libquantum" && r.SL > byName["libquantum"].SL {
			t.Errorf("fig6: %s SL %d exceeds libquantum %d", r.Name, r.SL, byName["libquantum"].SL)
		}
	}
	// Fig 7: both hash kernels dwarf every SPEC XOR count. (The paper's
	// 2x SHA-3-over-SHA-2 gap comes from compiler specifics; our kernels
	// land at comparable XOR densities — see EXPERIMENTS.md.)
	if byName["sha3"].XOR < byName["sha2"].XOR*8/10 {
		t.Errorf("fig7: SHA-3 XOR %d implausibly far below SHA-2 %d",
			byName["sha3"].XOR, byName["sha2"].XOR)
	}
	for _, p := range workload.SPEC2K6() {
		if byName[p.Name].XOR >= byName["sha2"].XOR {
			t.Errorf("fig7: %s XOR above SHA-2", p.Name)
		}
	}
	// Fig 8: only the SHA kernels rotate right meaningfully.
	if byName["sha2"].RR == 0 {
		t.Error("fig8: SHA-2 shows no RR")
	}
	for _, p := range workload.SPEC2K6() {
		if byName[p.Name].RR > 200_000 {
			t.Errorf("fig8: %s RR = %d, want ~0", p.Name, byName[p.Name].RR)
		}
	}
	// Fig 9: SHA-3 rotates left (Keccak rho); AES essentially none.
	if byName["sha3"].RL == 0 {
		t.Error("fig9: SHA-3 shows no RL")
	}
	if byName["aes"].RL > 200_000 {
		t.Errorf("fig9: AES RL = %d", byName["aes"].RL)
	}
	// Fig 10: the hash kernels dominate every SPEC RSX total.
	var maxSpec uint64
	for _, p := range workload.SPEC2K6() {
		if v := byName[p.Name].RSX(); v > maxSpec {
			maxSpec = v
		}
	}
	if byName["sha2"].RSX() <= maxSpec || byName["sha3"].RSX() <= maxSpec {
		t.Errorf("fig10: SHA kernels do not dominate SPEC max %d", maxSpec)
	}

	// Rendering sanity across all figures.
	for _, tab := range []Table{
		Figure5(res), Figure6(res), Figure7(res), Figure8(res),
		Figure9(res), Figure10(res), Figure11(res),
	} {
		if len(tab.Rows) != len(res) {
			t.Errorf("%s: %d rows, want %d", tab.ID, len(tab.Rows), len(res))
		}
		if !strings.Contains(tab.String(), tab.Title) {
			t.Errorf("%s: String() missing title", tab.ID)
		}
	}
}

func TestTableIAndII(t *testing.T) {
	t1 := TableI()
	if len(t1.Rows) < 10 || !strings.Contains(t1.String(), "2.0GHz") {
		t.Errorf("table1 = %s", t1)
	}
	t2 := TableII()
	if len(t2.Rows) != 4 {
		t.Errorf("table2 rows = %d", len(t2.Rows))
	}
	if !strings.Contains(t2.String(), "Slack") {
		t.Error("table2 missing Slack")
	}
}

func TestHourlyHeadlines(t *testing.T) {
	res, err := HourlyResults(0.02) // 72 simulated seconds per workload
	if err != nil {
		t.Fatal(err)
	}
	mon := res["Monero"]
	zec := res["Zcash"]
	ram := res["Ramme"]
	// Paper: Monero 342B/hour, >65x Ramme; Zcash three orders above Ramme.
	if mon.RSX < 300e9 || mon.RSX > 400e9 {
		t.Errorf("Monero RSX/hour = %s", fmtB(mon.RSX))
	}
	if ratio := mon.RSX / ram.RSX; ratio < 40 || ratio > 100 {
		t.Errorf("Monero/Ramme ratio = %.0f, want ~65", ratio)
	}
	if ratio := zec.RSX / ram.RSX; ratio < 300 {
		t.Errorf("Zcash/Ramme ratio = %.0f, want ~3 orders", ratio)
	}
	// Combined apps < 14B; Monero ~26x, Zcash ~230x that total.
	var apps float64
	for _, p := range workload.TableIIApps() {
		apps += res[p.Name].RSX
	}
	if apps >= 14e9 {
		t.Errorf("combined apps = %s, want <14B", fmtB(apps))
	}
	if ratio := mon.RSX / apps; ratio < 15 || ratio > 40 {
		t.Errorf("Monero/combined = %.0f, want ~26", ratio)
	}

	// Table III shape: Monero XOR-dominated (73% in the paper).
	if frac := mon.Xor / mon.RSX; frac < 0.6 || frac > 0.85 {
		t.Errorf("Monero XOR fraction = %.2f, want ~0.73", frac)
	}

	for _, tab := range []Table{
		Figure12(res), Figure13(res), Figure15(res),
		Figure16(res), Figure17(res), TableIII(res),
	} {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty", tab.ID)
		}
	}
}

func TestFigure2HashRate(t *testing.T) {
	tab := Figure2(0.2)
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "measured") {
			found = true
			if !strings.Contains(n, "avg 6") { // avg in the 600s
				t.Errorf("hash rate note: %s", n)
			}
		}
	}
	if !found {
		t.Error("no measured note")
	}
}

func TestFigure14(t *testing.T) {
	tab, err := Figure14()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Final row: Monero cumulative RSX must dwarf Ramme's.
	last := tab.Rows[len(tab.Rows)-1]
	if last[1] == last[2] {
		t.Errorf("Ramme and Monero identical: %v", last)
	}
}

func TestThresholdSweepHeadline(t *testing.T) {
	tab := ThresholdSweep()
	// Find the 2.5B row: detection 100%, FPR = 3/153 = 2.0%.
	var found bool
	for _, row := range tab.Rows {
		if row[0] == "2.50B" {
			found = true
			if row[1] != "100.0%" {
				t.Errorf("detection at 2.5B = %s", row[1])
			}
			if row[2] != "2.0%" {
				t.Errorf("FPR at 2.5B = %s", row[2])
			}
		}
	}
	if !found {
		t.Fatalf("2.5B row missing: %v", tab.Rows)
	}
	// FP note must name the crypto functions.
	note := strings.Join(tab.Notes, " ")
	for _, fn := range []string{"SHA2-sustained", "SHA3-sustained", "AES-sustained"} {
		if !strings.Contains(note, fn) {
			t.Errorf("FP note missing %s: %s", fn, note)
		}
	}
}

func TestThrottlingDetection(t *testing.T) {
	tab, err := ThrottlingDetection()
	if err != nil {
		t.Fatal(err)
	}
	byThrottle := map[string]string{}
	for _, row := range tab.Rows {
		byThrottle[row[0]] = row[2]
	}
	if byThrottle["30.0%"] != "true" {
		t.Error("30% throttle not detected")
	}
	if byThrottle["0.0%"] != "true" {
		t.Error("full speed not detected")
	}
	if byThrottle["90.0%"] != "false" {
		t.Error("90% throttle unexpectedly detected by threshold alone")
	}
}

func TestTableIV(t *testing.T) {
	tab := TableIV()
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "0.142" || tab.Rows[0][2] != "32.781" {
		t.Errorf("100%% row = %v", tab.Rows[0])
	}
	if tab.Rows[5][2] != "0.328" {
		t.Errorf("1%% row = %v", tab.Rows[5])
	}
}

func TestMarkdownRendering(t *testing.T) {
	tab := TableIV()
	md := tab.Markdown()
	if !strings.Contains(md, "| CPU utilization |") && !strings.Contains(md, "| CPU utilization ") {
		t.Errorf("markdown = %s", md)
	}
	if !strings.Contains(md, "---") {
		t.Error("markdown missing separator")
	}
}
