package stream

import (
	"fmt"

	"sistream/internal/txn"
)

// Kind discriminates data elements from control punctuations.
type Kind uint8

// Element kinds. The punctuation kinds mirror the paper's transaction
// boundary markers.
const (
	// KindData is a regular stream tuple.
	KindData Kind = iota
	// KindBOT marks the begin of a transaction (punctuation).
	KindBOT
	// KindCommit marks a transaction commit (punctuation).
	KindCommit
	// KindRollback marks a transaction rollback (punctuation).
	KindRollback
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindBOT:
		return "BOT"
	case KindCommit:
		return "COMMIT"
	case KindRollback:
		return "ROLLBACK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Tuple is one stream data record. Key/Value bind tuples to table rows
// for the linking operators; Num carries a numeric measure for windows
// and aggregations; Ts is the event timestamp (logical or wall-clock,
// chosen by the source); Delete marks an explicit deletion tuple for
// TO_TABLE ("a delete occurs if the tuple is ... explicitly removed by a
// delete tuple", Section 3). A Value that a table source emits —
// FromTablePartitioned, ToStream, FromSnapshot — is the committed
// version's own bytes, shared with the table and with every other reader
// of that version: read-only. A stage that changes a value copies it.
type Tuple struct {
	Key    string
	Value  []byte
	Num    float64
	Ts     int64
	Delete bool
}

// Element is what flows through streams: either a data tuple or a
// transaction punctuation. Tx carries the transaction handle attached by
// the Transactions operator, shared by every stateful operator of the
// query so that multi-state writes join one transaction — the
// prerequisite for the consistency protocol.
type Element struct {
	Kind  Kind
	Tuple Tuple
	Tx    *txn.Txn
}

// DataElement wraps a tuple.
func DataElement(t Tuple) Element { return Element{Kind: KindData, Tuple: t} }

// Punctuation constructs a control element.
func Punctuation(k Kind) Element { return Element{Kind: k} }
