// Package chainwal is the storage tail of the cross-package chain fixture:
// a write-ahead log whose Append is direct I/O by declared contract.
package chainwal

// Log is a stand-in WAL.
type Log struct {
	records [][]byte
}

// Append records one entry. Checked under a store path, so its name makes it
// a direct I/O hit for the locks analyzer and its interior is exempt.
func (l *Log) Append(rec []byte) error {
	l.records = append(l.records, rec)
	return nil
}
