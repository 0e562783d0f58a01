// Package experiments implements the paper's evaluation harness: the
// File Organization table of section 5.1.G and the quantitative claims
// around it (backup size, DCM no-change cheapness, registration
// throughput). The same code backs cmd/tableg, the root benchmark
// suite, and EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/gen"
	"moira/internal/queries"
	"moira/internal/workload"
)

// TableGRow is one line of the File Organization table.
type TableGRow struct {
	Service      string
	File         string
	PaperBytes   int // 0 where the paper gives no figure
	Bytes        int // measured (mean across hosts for per-host files)
	Number       int // distinct files generated
	Propagations int // files × receiving hosts
	Interval     string
}

// paperTableG holds the published numbers for the 10,000-user
// deployment.
var paperTableG = map[string]int{
	"cluster.db":  53656,
	"filsys.db":   541482,
	"gid.db":      341012,
	"group.db":    453636,
	"grplist.db":  357662,
	"passwd.db":   712446,
	"pobox.db":    415688,
	"printcap.db": 4318,
	"service.db":  9052,
	"sloc.db":     3734,
	"uid.db":      256381,
	"aliases":     445000,
	"dirs":        2784,
	"quotas":      1205,
	"credentials": 152648,
	"class.acl":   100,
}

// TableGResult is the complete reproduced table.
type TableGResult struct {
	Rows               []TableGRow
	TotalFiles         int
	TotalPropagations  int
	PaperTotalFiles    int // 59
	PaperTotalPropagns int // 90
}

// BuildPopulation creates the synthetic deployment at the given scale.
func BuildPopulation(users int) (*db.DB, *workload.Hosts, error) {
	d := queries.NewBootstrappedDB(clock.NewFake(time.Unix(600000000, 0)))
	_, hosts, err := workload.Populate(d, workload.Scaled(users))
	return d, hosts, err
}

// TableG reproduces the File Organization table at the given user count
// by running every generator over a synthetic population and sizing the
// outputs.
func TableG(users int) (*TableGResult, error) {
	d, hosts, err := BuildPopulation(users)
	if err != nil {
		return nil, err
	}
	res := &TableGResult{PaperTotalFiles: 59, PaperTotalPropagns: 90}

	// Hesiod: one file set, every hesiod server gets the same files.
	hes, err := gen.Generate(d, gen.HesiodIncremental)
	if err != nil {
		return nil, err
	}
	hesHosts := len(hosts.Hesiod)
	var hesNames []string
	for name := range hes.Files {
		hesNames = append(hesNames, name)
	}
	sort.Strings(hesNames)
	for _, name := range hesNames {
		res.Rows = append(res.Rows, TableGRow{
			Service: "Hesiod", File: name,
			PaperBytes: paperTableG[name], Bytes: len(hes.Files[name]),
			Number: 1, Propagations: hesHosts, Interval: "6 hours",
		})
	}

	// NFS: per-host dirs/quotas (report the mean size, count per host),
	// plus the credentials file which is generated once per distinct
	// membership but propagated to every server.
	nfs, err := gen.Generate(d, gen.NFSIncremental)
	if err != nil {
		return nil, err
	}
	nfsHosts := len(hosts.NFS)
	type agg struct{ total, n int }
	aggs := map[string]*agg{"dirs": {}, "quotas": {}, "credentials": {}}
	for name, data := range nfs.Files {
		switch {
		case strings.HasSuffix(name, ".dirs"):
			aggs["dirs"].total += len(data)
			aggs["dirs"].n++
		case strings.HasSuffix(name, ".quotas"):
			aggs["quotas"].total += len(data)
			aggs["quotas"].n++
		case strings.HasSuffix(name, "credentials"):
			aggs["credentials"].total += len(data)
			aggs["credentials"].n++
		}
	}
	mean := func(a *agg) int {
		if a.n == 0 {
			return 0
		}
		return a.total / a.n
	}
	res.Rows = append(res.Rows,
		TableGRow{Service: "NFS", File: "partition.dirs",
			PaperBytes: paperTableG["dirs"], Bytes: mean(aggs["dirs"]),
			Number: aggs["dirs"].n, Propagations: aggs["dirs"].n, Interval: "12 hours"},
		TableGRow{Service: "NFS", File: "partition.quotas",
			PaperBytes: paperTableG["quotas"], Bytes: mean(aggs["quotas"]),
			Number: aggs["quotas"].n, Propagations: aggs["quotas"].n, Interval: "12 hours"},
		TableGRow{Service: "NFS", File: "credentials",
			PaperBytes: paperTableG["credentials"], Bytes: mean(aggs["credentials"]),
			Number: 1, Propagations: nfsHosts, Interval: "12 hours"},
	)

	// Mail: one aliases file to one hub. (The companion passwd file is
	// an implementation detail the paper's table does not count.)
	mail, err := gen.Generate(d, gen.MailIncremental)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, TableGRow{
		Service: "Mail", File: "/usr/lib/aliases",
		PaperBytes: paperTableG["aliases"], Bytes: len(mail.Files["aliases"]),
		Number: 1, Propagations: 1, Interval: "24 hours",
	})

	// Zephyr: the ACL files, each propagated to every zephyr server.
	zep, err := gen.Generate(d, gen.ZephyrIncremental)
	if err != nil {
		return nil, err
	}
	zepHosts := len(hosts.Zephyr)
	zepBytes := 0
	for _, data := range zep.Files {
		zepBytes += len(data)
	}
	zepMean := 0
	if zep.NumFiles > 0 {
		zepMean = zepBytes / zep.NumFiles
	}
	res.Rows = append(res.Rows, TableGRow{
		Service: "Zephyr", File: "class.acl",
		PaperBytes: paperTableG["class.acl"], Bytes: zepMean,
		Number: zep.NumFiles, Propagations: zep.NumFiles * zepHosts, Interval: "24 hours",
	})

	for _, r := range res.Rows {
		res.TotalFiles += r.Number
		res.TotalPropagations += r.Propagations
	}
	return res, nil
}

// Format renders the table, paper column beside measured.
func (r *TableGResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-18s %10s %10s %7s %7s %6s %6s  %s\n",
		"Service", "File", "paper-B", "meas-B", "ratio", "number", "paperN", "props", "interval")
	prev := ""
	for _, row := range r.Rows {
		svc := row.Service
		if svc == prev {
			svc = ""
		} else {
			prev = svc
		}
		ratio := "-"
		if row.PaperBytes > 0 && row.Bytes > 0 {
			ratio = fmt.Sprintf("%.2f", float64(row.Bytes)/float64(row.PaperBytes))
		}
		fmt.Fprintf(&b, "%-8s %-18s %10d %10d %7s %7d %6s %6d  %s\n",
			svc, row.File, row.PaperBytes, row.Bytes, ratio, row.Number, "", row.Propagations, row.Interval)
	}
	fmt.Fprintf(&b, "%-8s %-18s %10s %10s %7s %7d %6d %6d\n",
		"TOTAL", "", "", "", "", r.TotalFiles, r.PaperTotalFiles, r.TotalPropagations)
	fmt.Fprintf(&b, "(paper totals: %d files, %d propagations)\n",
		r.PaperTotalFiles, r.PaperTotalPropagns)
	return b.String()
}
