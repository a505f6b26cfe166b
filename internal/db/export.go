package db

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// ExportObservationsCSV writes the folded observation groups as CSV, the
// moral equivalent of the CSV tables the paper's post-processing tool
// feeds into MariaDB. Columns: type label, member, access type, held
// lock sequence, folded count, raw event count.
func (db *DB) ExportObservationsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"type", "member", "access", "locks", "folded", "events"}); err != nil {
		return err
	}
	for _, g := range db.Groups() {
		if err := db.Hydrate(g); err != nil {
			return err
		}
		sigs := make([]string, 0, len(g.Seqs))
		for sig := range g.Seqs {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			so := g.Seqs[sig]
			err := cw.Write([]string{
				g.TypeLabel(), g.MemberName(), g.AccessType(),
				db.SeqString(so.Seq),
				strconv.FormatUint(so.Count, 10),
				strconv.FormatUint(so.Events, 10),
			})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportLocksCSV writes the lock table (Fig. 6's locks relation).
func (db *DB) ExportLocksCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "name", "class", "owner_type", "scope"}); err != nil {
		return err
	}
	ids := make([]uint64, 0, len(db.Locks))
	for id := range db.Locks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		li := db.Locks[id]
		scope := "static"
		if li.OwnerID != 0 {
			scope = "embedded"
		}
		err := cw.Write([]string{
			strconv.FormatUint(li.ID, 10), li.Name, li.Class.String(),
			li.OwnerType, scope,
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary returns a one-paragraph import summary (used by the import
// tool's output).
func (db *DB) Summary() string {
	return fmt.Sprintf(
		"%d data types, %d locks, %d functions, %d contexts, %d allocations; "+
			"%d raw accesses (%d filtered), %d transactions, %d observation groups",
		len(db.Types), len(db.Locks), len(db.Funcs), len(db.Ctxs), len(db.Allocs),
		db.RawAccesses, db.FilteredAccesses, db.Transactions, db.nGroups)
}
