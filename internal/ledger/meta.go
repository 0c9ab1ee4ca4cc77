package ledger

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// metadata is the per-ledger record kept in the coordination service.
type metadata struct {
	Ensemble    []string
	WriteQuorum int
	AckQuorum   int
	Closed      bool
	LastEntry   int64 // valid when Closed
	// The cold-tier location of an offloaded ledger (System.Offload); empty,
	// and absent from the encoding, while the entries are on bookies.
	Offloaded bool
	Bucket    string
	Key       string
}

// Metadata wire format (the value of /ledgers/<id>):
//
//	byte 0    metaVersion (0x01)
//	byte 1    flags: metaClosed | metaOffloaded
//	uvarint   WriteQuorum
//	uvarint   AckQuorum
//	uvarint   len(Ensemble), then per bookie: uvarint length, the id's bytes
//	8 bytes   LastEntry, big-endian two's complement
//	          — fixed width, so sealing rewrites the node at its own length
//	then, only when metaOffloaded: Bucket and Key, each a uvarint length and
//	its bytes
const (
	metaVersion   = 0x01
	metaClosed    = 1 << 0
	metaOffloaded = 1 << 1
)

// appendMeta appends md's encoding to buf. A writer passes its own buffer cut
// to zero length, so re-encoding its ledger's record allocates nothing.
func appendMeta(buf []byte, md metadata) []byte {
	var flags byte
	if md.Closed {
		flags |= metaClosed
	}
	if md.Offloaded {
		flags |= metaOffloaded
	}
	buf = append(buf, metaVersion, flags)
	buf = binary.AppendUvarint(buf, uint64(md.WriteQuorum))
	buf = binary.AppendUvarint(buf, uint64(md.AckQuorum))
	buf = binary.AppendUvarint(buf, uint64(len(md.Ensemble)))
	for _, id := range md.Ensemble {
		buf = appendString(buf, id)
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(md.LastEntry))
	if md.Offloaded {
		buf = appendString(buf, md.Bucket)
		buf = appendString(buf, md.Key)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// decodeMeta parses a metadata record. It accepts exactly what appendMeta
// writes for a ledger CreateLedger could have made: an unknown version or
// flag, short input, trailing bytes, a padded varint, an empty bookie id, a
// quorum CreateLedger would refuse, an offload of an open ledger or a last
// entry below -1 is an error,
// never a guess.
func decodeMeta(b []byte) (metadata, error) {
	if len(b) < 2 {
		return metadata{}, fmt.Errorf("ledger: metadata record of %d bytes", len(b))
	}
	if b[0] != metaVersion {
		return metadata{}, fmt.Errorf("ledger: unknown metadata codec version 0x%02x", b[0])
	}
	flags := b[1]
	if flags&^(metaClosed|metaOffloaded) != 0 {
		return metadata{}, fmt.Errorf("ledger: unknown metadata flags 0x%02x", flags)
	}
	d := metaDecoder{b: b, off: 2}
	md := metadata{Closed: flags&metaClosed != 0, Offloaded: flags&metaOffloaded != 0}
	wq, ack, n := d.uvarint("write quorum"), d.uvarint("ack quorum"), d.uvarint("ensemble size")
	if d.err != nil {
		return metadata{}, d.err
	}
	// Every id takes at least two bytes, so a count beyond what is left is
	// short input — caught before it sizes an allocation.
	if ack < 1 || ack > wq || wq > n || n > uint64(len(b)-d.off)/2 {
		return metadata{}, fmt.Errorf("ledger: metadata quorums write=%d ack=%d over %d bookies out of range", wq, ack, n)
	}
	md.WriteQuorum, md.AckQuorum = int(wq), int(ack)
	md.Ensemble = make([]string, n)
	for i := range md.Ensemble {
		if md.Ensemble[i] = d.string("bookie id"); md.Ensemble[i] == "" && d.err == nil {
			d.err = fmt.Errorf("ledger: empty bookie id in metadata")
		}
	}
	if d.err == nil && len(b)-d.off < 8 {
		d.err = fmt.Errorf("ledger: metadata ends before its last entry")
	}
	if d.err != nil {
		return metadata{}, d.err
	}
	md.LastEntry = int64(binary.BigEndian.Uint64(b[d.off:]))
	d.off += 8
	if md.LastEntry < -1 {
		return metadata{}, fmt.Errorf("ledger: metadata last entry %d", md.LastEntry)
	}
	if md.Offloaded {
		if !md.Closed {
			return metadata{}, fmt.Errorf("ledger: metadata of an open ledger names an offload")
		}
		md.Bucket, md.Key = d.string("bucket"), d.string("key")
		if d.err != nil {
			return metadata{}, d.err
		}
	}
	if d.off != len(b) {
		return metadata{}, fmt.Errorf("ledger: %d trailing bytes after metadata", len(b)-d.off)
	}
	return md, nil
}

// metaDecoder reads a record's fields in order; the first error sticks and
// every later read returns zero.
type metaDecoder struct {
	b   []byte
	off int
	err error
}

func (d *metaDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || n != uvarintLen(v) || v > math.MaxInt32 {
		d.err = fmt.Errorf("ledger: bad metadata %s at offset %d", what, d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *metaDecoder) string(what string) string {
	n := d.uvarint(what)
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.err = fmt.Errorf("ledger: metadata %s of %d bytes at offset %d, %d left", what, n, d.off, len(d.b)-d.off)
	}
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// uvarintLen is how many bytes binary.AppendUvarint spends on v: a varint
// of any other length is padded.
func uvarintLen(v uint64) int { return max(1, (bits.Len64(v)+6)/7) }

// metaPath is a ledger's node in the coordination service, formatted with
// one allocation: the string itself.
func metaPath(id int64) string {
	var buf [32]byte
	b := append(buf[:0], metaRoot+"/"...)
	return string(strconv.AppendInt(b, id, 10))
}
