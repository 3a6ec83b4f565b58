package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	stdfs "io/fs"

	"github.com/tdgraph/tdgraph/internal/wal"
)

// The term is the cluster's fencing epoch: a promotion increments it
// durably *before* the new primary serves, and a starting primary
// claims one strictly greater than every term its reachable peers hold
// — so a deposed primary's frames (carrying an old term) are refused
// by every follower that heard about the promotion. Two primaries share
// a term only if their candidacies could not reach each other, which
// the election splay makes unlikely but does not exclude.
//
// Alongside the fencing term each replica keeps a term *ledger*: one
// (term, baseSeq) entry per term that originated records in its log,
// meaning "records from baseSeq up to the next entry's base were
// created under term". The ledger is the replication analogue of
// Raft's per-entry term: because a term has at most one primary and a
// follower only appends contiguously inside a verified session, two
// logs whose tails carry the same (origin term, seq) are identical
// through that seq — which lets a primary detect a rejoining replica
// whose log has silently diverged (e.g. a deposed primary restarted as
// a follower, resurrecting an unacknowledged tail the promoted log
// never had) instead of counting its acks toward quorum.
//
// Both live in one CRC-framed term file beside the WAL, replaced whole
// by wal.ReplaceFile (temp file, fsync, rename, directory fsync). A
// crash leaves either the old file or the new one, never a torn one, so
// a file that fails its checks is corruption and load refuses it.

const (
	termMagic   = 0x5444544D // "TDTM"
	termVersion = 2
	// maxLedgerEntries bounds the decode allocation; one entry exists
	// per term ever adopted, so real ledgers hold a handful.
	maxLedgerEntries = 4096
)

// termFileName is the term file in the WAL directory. Neither it nor
// its ".tmp" parses as a segment name, so the log ignores both.
const termFileName = "term.state"

// retiredTermSlots is the two-slot layout the term file replaced. A
// directory that holds only these is refused, not read as term 0.
var retiredTermSlots = [...]string{"term.a", "term.b"}

// TermBase is one ledger entry: records with sequence >= Base (up to
// the next entry's base) were created under Term.
type TermBase struct {
	Term uint64
	Base uint64
}

// TermState is a replica's durable replication state: the fencing term
// and the origin-term ledger of its log.
type TermState struct {
	// Term is the highest term this replica has durably adopted; it
	// refuses sessions that do not claim a strictly greater one.
	Term uint64
	// Ledger maps log ranges to the terms that created them, ascending
	// in both Term and Base.
	Ledger []TermBase
}

// At returns the origin term of the record at seq, or 0 when the
// ledger does not cover it (pre-replication history, or seq 0).
func (s TermState) At(seq uint64) uint64 {
	if seq == 0 {
		return 0
	}
	t := uint64(0)
	for _, e := range s.Ledger {
		if e.Base <= seq {
			t = e.Term
		}
	}
	return t
}

// tail returns the newest ledger entry's term (0 for an empty ledger).
func (s TermState) tail() uint64 {
	if len(s.Ledger) == 0 {
		return 0
	}
	return s.Ledger[len(s.Ledger)-1].Term
}

// Stamp records that log sequences from base onward originate at term.
// Entries that claimed base or beyond are superseded (a crashed
// primary that never wrote a record under its claimed term is simply
// overwritten by the next claim at the same base).
func (s *TermState) Stamp(term, base uint64) {
	for len(s.Ledger) > 0 && s.Ledger[len(s.Ledger)-1].Base >= base {
		s.Ledger = s.Ledger[:len(s.Ledger)-1]
	}
	if term > s.tail() {
		s.Ledger = append(s.Ledger, TermBase{Term: term, Base: base})
	}
}

// appendLedger appends a ledger's encoding — a u16 entry count, then
// (term u64, base u64) per entry, little-endian — the one form the term
// file and the snapshot offer both carry.
func appendLedger(buf []byte, ledger []TermBase) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ledger)))
	for _, e := range ledger {
		buf = binary.LittleEndian.AppendUint64(buf, e.Term)
		buf = binary.LittleEndian.AppendUint64(buf, e.Base)
	}
	return buf
}

// parseLedger decodes an appendLedger encoding that must fill b
// exactly, refusing more than maxLedgerEntries entries.
func parseLedger(b []byte) ([]TermBase, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("ledger truncated at %d bytes", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b))
	if b = b[2:]; n > maxLedgerEntries {
		return nil, fmt.Errorf("implausible ledger length %d", n)
	}
	if len(b) != 16*n {
		return nil, fmt.Errorf("ledger length %d does not hold %d entries", len(b), n)
	}
	var ledger []TermBase
	for i := 0; i < n; i++ {
		ledger = append(ledger, TermBase{
			Term: binary.LittleEndian.Uint64(b[16*i : 16*i+8]),
			Base: binary.LittleEndian.Uint64(b[16*i+8 : 16*i+16]),
		})
	}
	return ledger, nil
}

// encodeTermState is the term file's bytes: magic u32, version u8,
// term u64, the ledger (appendLedger), and a CRC32 over all of it.
func encodeTermState(s TermState) []byte {
	buf := make([]byte, 0, 15+16*len(s.Ledger)+4)
	buf = binary.LittleEndian.AppendUint32(buf, termMagic)
	buf = append(buf, termVersion)
	buf = binary.LittleEndian.AppendUint64(buf, s.Term)
	buf = appendLedger(buf, s.Ledger)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// SaveTermState durably replaces the term file in dir (the WAL
// directory) with s.
func SaveTermState(fs wal.FS, dir string, s TermState) error {
	if len(s.Ledger) > maxLedgerEntries {
		return fmt.Errorf("replica: term ledger overflow: %d entries", len(s.Ledger))
	}
	return wal.ReplaceFile(fs, dir+"/"+termFileName, func(w io.Writer) error {
		_, err := w.Write(encodeTermState(s))
		return err
	})
}

// LoadTermState returns the stored state, or the zero state when dir
// holds none (a replica that has never heard of any primary). Anything
// else that keeps the file from being read — an I/O error, a file that
// fails its checks, a directory left in the retired two-slot layout —
// is returned as an error rather than a forged zero term: a replica
// that forgot its adopted term would re-admit a deposed primary.
func LoadTermState(fs wal.FS, dir string) (TermState, error) {
	data, err := wal.ReadFile(fs, dir+"/"+termFileName)
	if errors.Is(err, stdfs.ErrNotExist) {
		for _, slot := range retiredTermSlots {
			f, err := fs.Open(dir + "/" + slot)
			if err == nil {
				f.Close()
				return TermState{}, fmt.Errorf("replica: %s holds term slot %s of the retired two-slot layout and no %s", dir, slot, termFileName)
			}
			if !errors.Is(err, stdfs.ErrNotExist) {
				return TermState{}, fmt.Errorf("replica: opening %s: %w", slot, err)
			}
		}
		return TermState{}, nil
	}
	if err != nil {
		return TermState{}, fmt.Errorf("replica: reading term file: %w", err)
	}
	s, ok := decodeTermState(data)
	if !ok {
		return TermState{}, fmt.Errorf("replica: term file %s/%s is corrupt", dir, termFileName)
	}
	return s, nil
}

// decodeTermState is encodeTermState's inverse; a decoded state
// re-encodes byte-identical (FuzzTermState).
func decodeTermState(data []byte) (TermState, bool) {
	if len(data) < 15+4 { // header, empty ledger, CRC
		return TermState{}, false
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return TermState{}, false
	}
	if binary.LittleEndian.Uint32(body[0:4]) != termMagic || body[4] != termVersion {
		return TermState{}, false
	}
	ledger, err := parseLedger(body[13:])
	if err != nil {
		return TermState{}, false
	}
	return TermState{Term: binary.LittleEndian.Uint64(body[5:13]), Ledger: ledger}, true
}

// ClaimTerm durably adopts term as this replica's fencing epoch and
// stamps the ledger so every record the replica appends from here on
// is attributed to it. The caller must have established uniqueness
// first (probe every reachable peer and claim strictly more than the
// maximum, or promote with term+1); a primary serving under an
// unclaimed term could resurrect it after a crash and split the
// cluster.
func ClaimTerm(opt wal.Options, term uint64) (TermState, error) {
	fs := wal.OrOS(opt.FS)
	s, err := LoadTermState(fs, opt.Dir)
	if err != nil {
		return TermState{}, err
	}
	if term <= s.Term {
		return TermState{}, fmt.Errorf("%w: claiming term %d, already adopted %d", ErrStaleTerm, term, s.Term)
	}
	end, err := wal.EndSeq(opt)
	if err != nil {
		return TermState{}, err
	}
	s.Term = term
	s.Stamp(term, end+1)
	if err := SaveTermState(fs, opt.Dir, s); err != nil {
		return TermState{}, err
	}
	return s, nil
}
