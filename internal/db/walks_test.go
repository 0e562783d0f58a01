package db

import (
	"cmp"
	"slices"

	"moira/internal/mrerr"
)

// Slice and error forms of the relation operations, for tests that
// compare whole results with the linear-scan reference (refstore) or
// check a delete's MR_NO_MATCH.

// collect returns the rows walk yields, in its order.
func collect[R any](walk func(fn func(*R) bool)) (out []*R) {
	walk(func(r *R) bool { out = append(out, r); return true })
	return out
}

// matching returns the rows rel.Match yields for pattern, in id order:
// the order the reference keeps.
func matching[R comparable](d *DB, rel *Relation[R], pattern string) []*R {
	out := collect(func(fn func(*R) bool) { rel.Match(d, pattern, fn) })
	slices.SortFunc(out, func(a, b *R) int { return cmp.Compare(rel.id(a), rel.id(b)) })
	return out
}

// under returns the rows rel files under name, in the relation's order.
func under[R comparable](d *DB, rel *Relation[R], name string) []*R {
	return collect(func(fn func(*R) bool) { rel.Under(d, name, fn) })
}

// keyed returns the rows x files under key, in the index's order.
func keyed[R comparable, K indexKey](d *DB, x *Index[R, K], key int) []*R {
	return collect(func(fn func(*R) bool) { x.Each(d, key, fn) })
}

// clustersOfMachine returns the ids of the machine's clusters, in order.
func clustersOfMachine(d *DB, machID int) (out []int) {
	for _, mc := range keyed(d, MCMapsByMachine, machID) {
		out = append(out, mc.CluID)
	}
	return out
}

// machinesOfCluster returns the ids of the cluster's machines, in order.
func machinesOfCluster(d *DB, cluID int) (out []int) {
	for _, mc := range keyed(d, MCMapsByCluster, cluID) {
		out = append(out, mc.MachID)
	}
	return out
}

func mcmapOf(d *DB, machID, cluID int) (*MCMap, bool) {
	return MCMapsByMachine.Find(d, machID, func(mc *MCMap) bool { return mc.CluID == cluID })
}

func hasMCMap(d *DB, machID, cluID int) bool { return has(mcmapOf(d, machID, cluID)) }

func deleteMCMap(d *DB, machID, cluID int) error {
	return deleteFound(d, MCMaps)(mcmapOf(d, machID, cluID))
}

func deleteServerHost(d *DB, service string, machID int) error {
	return deleteFound(d, ServerHosts)(ServerHosts.Find(d, service, func(sh *ServerHost) bool { return sh.MachID == machID }))
}

func deleteQuota(d *DB, usersID, filsysID int) error {
	return deleteFound(d, Quotas)(QuotasByFilesys.Find(d, filsysID, func(q *NFSQuota) bool { return q.UsersID == usersID }))
}

func aliasOf(d *DB, name, typ, trans string) (*Alias, bool) {
	return Aliases.First(d, func(a *Alias) bool { return *a == Alias{name, typ, trans} })
}

func deleteAlias(d *DB, name, typ, trans string) error {
	return deleteFound(d, Aliases)(aliasOf(d, name, typ, trans))
}

// deleteFound returns a function that deletes the row a lookup found,
// MR_NO_MATCH when it found none.
func deleteFound[R comparable](d *DB, rel *Relation[R]) func(*R, bool) error {
	return func(row *R, ok bool) error {
		if !ok {
			return mrerr.MrNoMatch
		}
		rel.Delete(d, row)
		return nil
	}
}
