package sim

import (
	"bufio"
	"fmt"
	"io"
)

// SetTrace attaches a memory-access trace sink: every line-granular
// access writes one record,
//
//	<core> <op> <line-address-hex>
//
// where op is R (demand read), W (demand write), PR (engine prefetch
// read) or PW (engine prefetch write). Traces let the simulated access
// streams feed external tooling (cache simulators, locality analyses).
// Pass nil to detach. The writer is wrapped in a buffer; call FlushTrace
// (or Finish, which does it) before reading the sink.
func (m *Machine) SetTrace(w io.Writer) {
	if w == nil {
		m.trace = nil
		return
	}
	m.trace = bufio.NewWriterSize(w, 1<<16)
}

// FlushTrace drains buffered trace records to the sink.
func (m *Machine) FlushTrace() error {
	if m.trace == nil {
		return nil
	}
	return m.trace.Flush()
}

func (m *Machine) traceAccess(core int, la uint64, write, stall bool) {
	if m.trace == nil {
		return
	}
	op := "R"
	switch {
	case write && stall:
		op = "W"
	case !write && !stall:
		op = "PR"
	case write && !stall:
		op = "PW"
	}
	fmt.Fprintf(m.trace, "%d %s %#x\n", core, op, la)
}
