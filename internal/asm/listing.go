package asm

import (
	"fmt"
	"sort"
	"strings"

	"multiscalar/internal/isa"
)

// Listing renders an assembled program as annotated assembly text:
// labels, task descriptor comments, per-instruction addresses and
// annotation suffixes — the inverse view the msas tool prints. Target
// addresses are symbolized where a label exists.
func Listing(p *isa.Program) string {
	labels := map[uint32][]string{}
	for name, addr := range p.Symbols {
		labels[addr] = append(labels[addr], name)
	}
	for a := range labels {
		sort.Strings(labels[a])
	}
	symbolize := func(addr uint32) string {
		if addr == isa.TargetReturn {
			return "ret"
		}
		if ls := labels[addr]; len(ls) > 0 {
			return ls[0]
		}
		return fmt.Sprintf("0x%x", addr)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "; %d instructions, %d data bytes, %d tasks, entry %s\n",
		len(p.Text), len(p.Data), len(p.Tasks), symbolize(p.Entry))
	for i := range p.Text {
		addr := isa.TextBase + uint32(i)*isa.InstrSize
		for _, l := range labels[addr] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		if td := p.TaskAt(addr); td != nil {
			var tgts []string
			for _, t := range td.Targets {
				tgts = append(tgts, symbolize(t))
			}
			fmt.Fprintf(&b, "\t; task %s create=%v targets=[%s]",
				td.Name, td.Create, strings.Join(tgts, ","))
			if td.PushRA != 0 {
				fmt.Fprintf(&b, " pushra=%s call=%s", symbolize(td.PushRA), symbolize(td.CallTarget))
			}
			b.WriteByte('\n')
		}
		in := &p.Text[i]
		text := in.String()
		// Symbolize branch/jump targets in the rendered form.
		if in.Op.HasTarget() {
			text = strings.Replace(text, fmt.Sprintf("0x%x", in.Target), symbolize(in.Target), 1)
		}
		fmt.Fprintf(&b, "  0x%04x  %s\n", addr, text)
	}
	return b.String()
}
