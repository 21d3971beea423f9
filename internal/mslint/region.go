package mslint

import (
	"multiscalar/internal/cfg"
	"multiscalar/internal/isa"
)

// Task regions are reconstructed by the shared walk in internal/cfg
// (cfg.Graph.TaskRegion): start at the entry, follow control flow, end
// at any satisfied stop bit, pull suppressed callees in. The walk
// records structural oddities as cfg.Problems; this file translates
// them into the linter's diagnostics, preserving the exact codes,
// severities, anchors, and messages the walk used to emit inline.

type linter struct {
	prog  *isa.Program
	g     *cfg.Graph
	lines map[uint32]int
	rep   *Report
}

// walkTask reconstructs the region of one task and reports its
// structural problems.
func (l *linter) walkTask(td *isa.TaskDescriptor) *cfg.TaskRegion {
	r := l.g.TaskRegion(td)
	for _, p := range r.Problems {
		switch p.Kind {
		case cfg.ProbBadEntry:
			l.diag(SevError, CodeBadTaskRef, td.Name, isa.RegZero, p.Addr,
				"task entry 0x%x is not the start of a basic block", p.Addr)
		case cfg.ProbFallsOffText:
			l.diag(SevError, CodeMissingStop, td.Name, isa.RegZero, p.Addr,
				"control falls past the end of text without a stop bit")
		case cfg.ProbEntersTask:
			l.diag(SevError, CodeMissingStop, td.Name, isa.RegZero, p.Addr,
				"control enters task %s at 0x%x without a stop bit", l.taskNameAt(p.Target), p.Target)
		case cfg.ProbStopInCallee:
			l.diag(SevWarning, CodeStopInCallee, td.Name, isa.RegZero, p.Addr,
				"stop bit inside called function body (%s)", p.Op)
		case cfg.ProbCalleeIsTask:
			ct := l.prog.Tasks[p.Target]
			l.diag(SevWarning, CodeTaskOverlap, td.Name, isa.RegZero, p.Addr,
				"call without a stop bit to %s, which is also task %s: its body executes both inside this task and as its own task", ct.Name, ct.Name)
		case cfg.ProbIndirect:
			l.diag(SevWarning, CodeIndirect, td.Name, isa.RegZero, p.Addr,
				"indirect call defeats static exit and effect analysis")
		case cfg.ProbReturnNoStop:
			l.diag(SevError, CodeMissingStop, td.Name, isa.RegZero, p.Addr,
				"return reachable from the task entry without a stop bit")
		}
	}
	return r
}
