package export

import (
	"strconv"

	"memcontention/internal/model"
)

// ParamsTable renders a calibrated model's parameter sets (§III-A) as a
// two-column table: local and remote instantiations side by side.
func ParamsTable(title string, m model.Model) *Table {
	t := NewTable(title, "parameter", "local", "remote", "meaning")
	t.Grow(11)
	row := func(name, local, remote, meaning string) { t.AddRow(name, local, remote, meaning) }
	l, r := m.Local, m.Remote
	row("N_par_max", strconv.Itoa(l.NParMax), strconv.Itoa(r.NParMax), "cores reaching the parallel maximum")
	row("T_par_max", GBs(l.TParMax), GBs(r.TParMax), "max total bandwidth, comp ∥ comm (GB/s)")
	row("N_seq_max", strconv.Itoa(l.NSeqMax), strconv.Itoa(r.NSeqMax), "cores reaching the compute-alone maximum")
	row("T_seq_max", GBs(l.TSeqMax), GBs(r.TSeqMax), "max compute-alone bandwidth (GB/s)")
	row("T_par_max2", GBs(l.TPar2), GBs(r.TPar2), "total bandwidth at N_seq_max cores (GB/s)")
	row("δl", fixed3(l.DeltaL), fixed3(r.DeltaL), "loss per core, N_par_max→N_seq_max (GB/s)")
	row("δr", fixed3(l.DeltaR), fixed3(r.DeltaR), "loss per core beyond N_seq_max (GB/s)")
	row("B_comp_seq", GBs(l.BCompSeq), GBs(r.BCompSeq), "one core's memory bandwidth (GB/s)")
	row("B_comm_seq", GBs(l.BCommSeq), GBs(r.BCommSeq), "nominal network bandwidth (GB/s)")
	row("α", fixed3(l.Alpha), fixed3(r.Alpha), "worst-case comm fraction under contention")
	t.AddRow("#m", strconv.Itoa(m.NodesPerSocket), strconv.Itoa(m.NodesPerSocket), "NUMA nodes per socket")
	return t
}

// fixed3 formats v with three decimals, as fmt's %.3f does.
func fixed3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
