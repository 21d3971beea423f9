package isa

// Op identifies an operation. The set is MIPS-like: 3-operand integer
// arithmetic with immediate forms, loads/stores over a big-endian byte
// addressed memory, compare-and-branch, jumps, single/double precision
// floating point with a single condition flag, plus the two operations the
// multiscalar paradigm adds to the base ISA: Release (Section 2.2) and
// Syscall (the paper's simulator traps system calls to the host).
type Op uint8

const (
	OpNop Op = iota

	// Integer arithmetic, register forms: rd <- rs OP rt.
	OpAdd
	OpSub
	OpMul
	OpDiv // rd <- rs / rt (signed); traps on divide by zero
	OpRem // rd <- rs % rt (signed)
	OpAnd
	OpOr
	OpXor
	OpNor
	OpSllv // rd <- rs << (rt & 31)
	OpSrlv
	OpSrav
	OpSlt  // rd <- (rs < rt) signed
	OpSltu // rd <- (rs < rt) unsigned

	// Integer arithmetic, immediate forms: rd <- rs OP imm.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlti
	OpSltiu
	OpSll // rd <- rs << imm
	OpSrl
	OpSra
	OpLui // rd <- imm << 16

	// Memory: loads rd <- mem[rs+imm], stores mem[rs+imm] <- rt.
	OpLb
	OpLbu
	OpLh
	OpLhu
	OpLw
	OpSb
	OpSh
	OpSw
	OpLwc1 // l.s: FP rd <- mem32[rs+imm]
	OpLdc1 // l.d: FP rd <- mem64[rs+imm]
	OpSwc1 // s.s: mem32[rs+imm] <- FP rt
	OpSdc1 // s.d: mem64[rs+imm] <- FP rt

	// Control transfer. Conditional branches compare rs (and rt) and
	// branch to Target. Jumps transfer to Target (OpJ, OpJal) or to the
	// address in rs (OpJr, OpJalr); OpJal/OpJalr write the return address
	// into rd (conventionally $ra).
	OpBeq
	OpBne
	OpBlez
	OpBgtz
	OpBltz
	OpBgez
	OpJ
	OpJal
	OpJr
	OpJalr
	OpBc1t // branch if FP condition flag set
	OpBc1f // branch if FP condition flag clear

	// Floating point, single precision: fd <- fs OP ft.
	OpAddS
	OpSubS
	OpMulS
	OpDivS
	// Floating point, double precision.
	OpAddD
	OpSubD
	OpMulD
	OpDivD
	OpNegD
	OpAbsD
	OpMovD  // fd <- fs
	OpSqrtD // fd <- sqrt(fs); latency of DP divide

	// FP compares set the FP condition flag: fcc <- fs OP ft.
	OpCEqD
	OpCLtD
	OpCLeD

	// Conversions and transfers between the files.
	OpMtc1  // FP rd <- int rs (bit pattern as int32 value)
	OpMfc1  // int rd <- FP rs (truncating the represented value to int32)
	OpCvtDW // FP rd <- double(int value in FP rs)
	OpCvtWD // FP rd <- int32(double in FP rs), stored as value
	OpCvtSD // FP rd <- single(double in FP rs)
	OpCvtDS // FP rd <- double(single in FP rs)

	// Multiscalar-specific operations (Section 2.2).
	OpRelease // release rs: forward the current value of rs to later tasks

	// Environment.
	OpSyscall // host syscall: code in $v0, args in $a0-$a3, result in $v0

	numOps // sentinel
)

// NumOps bounds the operation set: every valid Op is below it, so a table
// of that length can be indexed by opcode.
const NumOps = int(numOps)

// FUClass identifies which functional unit services an operation
// (Section 5.1: 1-2 simple integer, 1 complex integer, 1 floating point,
// 1 branch, 1 memory unit per processing unit).
type FUClass uint8

const (
	FUSimpleInt FUClass = iota
	FUComplexInt
	FUFloat
	FUBranch
	FUMemory
	NumFUClasses
)

var fuClassNames = [NumFUClasses]string{"simple-int", "complex-int", "float", "branch", "memory"}

func (c FUClass) String() string {
	if int(c) < len(fuClassNames) {
		return fuClassNames[c]
	}
	return "bad-fu-class"
}

// Slot is one operand position of an instruction's assembly form. The
// kind fixes the direction: rd is the register the instruction writes;
// rs, rt and the base register of off(rs) are registers it reads.
type Slot uint8

const (
	SlotRd     Slot = iota + 1 // destination register (written)
	SlotRs                     // first source register (read)
	SlotRt                     // second source register (read)
	SlotImm                    // immediate
	SlotMem                    // off(rs): immediate offset and base register (read)
	SlotTarget                 // code address
)

// The operand forms the ISA uses, in assembly order.
var (
	fRdRsRt     = []Slot{SlotRd, SlotRs, SlotRt}
	fRdRsImm    = []Slot{SlotRd, SlotRs, SlotImm}
	fRdRs       = []Slot{SlotRd, SlotRs}
	fRdImm      = []Slot{SlotRd, SlotImm}
	fRdMem      = []Slot{SlotRd, SlotMem}
	fRtMem      = []Slot{SlotRt, SlotMem}
	fRsRt       = []Slot{SlotRs, SlotRt}
	fRs         = []Slot{SlotRs}
	fRsRtTarget = []Slot{SlotRs, SlotRt, SlotTarget}
	fRsTarget   = []Slot{SlotRs, SlotTarget}
	fTarget     = []Slot{SlotTarget}
	fNone       = []Slot{}
)

// latClass names the Latencies field that times an operation.
type latClass uint8

const (
	latOne latClass = iota + 1 // always one cycle, whatever the table says
	latIntAddSub
	latShiftLogic
	latIntMul
	latIntDiv
	latMemStore
	latMemLoad
	latBranch
	latSPAddSub
	latSPMul
	latSPDiv
	latDPAddSub
	latDPMul
	latDPDiv
)

// opInfo is everything static about one operation. opInfos is the only
// per-opcode table: the assembler, the disassembler, dependence tracking,
// the timing model and the documentation check all read it (DESIGN.md,
// "What an opcode is"). A row without a form or a latency class fails
// TestOpTableComplete.
type opInfo struct {
	name  string
	class FUClass
	lat   latClass
	form  []Slot // operand slots in assembly order; non-nil, fNone for no operands

	// Registers beside the form's. defaultRd: the instruction writes Rd
	// although its form (jal) or its short form (jalr rs) does not name
	// it, and the assembler fills in this register. uses/def: registers
	// read and written whatever the register fields hold.
	defaultRd Reg
	uses      []Reg
	def       Reg

	immOp Op // the immediate twin a constant third operand selects (add -> addi)

	load     bool
	store    bool
	branch   bool // conditional branch
	jump     bool // unconditional control transfer
	setsFCC  bool
	readsFCC bool
	memSize  uint8 // bytes accessed for loads/stores
}

var opInfos = [numOps]opInfo{
	OpNop: {name: "nop", class: FUSimpleInt, lat: latOne, form: fNone},

	OpAdd:  {name: "add", class: FUSimpleInt, lat: latIntAddSub, form: fRdRsRt, immOp: OpAddi},
	OpSub:  {name: "sub", class: FUSimpleInt, lat: latIntAddSub, form: fRdRsRt},
	OpMul:  {name: "mul", class: FUComplexInt, lat: latIntMul, form: fRdRsRt},
	OpDiv:  {name: "div", class: FUComplexInt, lat: latIntDiv, form: fRdRsRt},
	OpRem:  {name: "rem", class: FUComplexInt, lat: latIntDiv, form: fRdRsRt},
	OpAnd:  {name: "and", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsRt, immOp: OpAndi},
	OpOr:   {name: "or", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsRt, immOp: OpOri},
	OpXor:  {name: "xor", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsRt, immOp: OpXori},
	OpNor:  {name: "nor", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsRt},
	OpSllv: {name: "sllv", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsRt, immOp: OpSll},
	OpSrlv: {name: "srlv", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsRt, immOp: OpSrl},
	OpSrav: {name: "srav", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsRt, immOp: OpSra},
	OpSlt:  {name: "slt", class: FUSimpleInt, lat: latIntAddSub, form: fRdRsRt, immOp: OpSlti},
	OpSltu: {name: "sltu", class: FUSimpleInt, lat: latIntAddSub, form: fRdRsRt, immOp: OpSltiu},

	OpAddi:  {name: "addi", class: FUSimpleInt, lat: latIntAddSub, form: fRdRsImm},
	OpAndi:  {name: "andi", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsImm},
	OpOri:   {name: "ori", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsImm},
	OpXori:  {name: "xori", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsImm},
	OpSlti:  {name: "slti", class: FUSimpleInt, lat: latIntAddSub, form: fRdRsImm},
	OpSltiu: {name: "sltiu", class: FUSimpleInt, lat: latIntAddSub, form: fRdRsImm},
	OpSll:   {name: "sll", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsImm},
	OpSrl:   {name: "srl", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsImm},
	OpSra:   {name: "sra", class: FUSimpleInt, lat: latShiftLogic, form: fRdRsImm},
	OpLui:   {name: "lui", class: FUSimpleInt, lat: latIntAddSub, form: fRdImm},

	OpLb:   {name: "lb", class: FUMemory, lat: latMemLoad, form: fRdMem, load: true, memSize: 1},
	OpLbu:  {name: "lbu", class: FUMemory, lat: latMemLoad, form: fRdMem, load: true, memSize: 1},
	OpLh:   {name: "lh", class: FUMemory, lat: latMemLoad, form: fRdMem, load: true, memSize: 2},
	OpLhu:  {name: "lhu", class: FUMemory, lat: latMemLoad, form: fRdMem, load: true, memSize: 2},
	OpLw:   {name: "lw", class: FUMemory, lat: latMemLoad, form: fRdMem, load: true, memSize: 4},
	OpSb:   {name: "sb", class: FUMemory, lat: latMemStore, form: fRtMem, store: true, memSize: 1},
	OpSh:   {name: "sh", class: FUMemory, lat: latMemStore, form: fRtMem, store: true, memSize: 2},
	OpSw:   {name: "sw", class: FUMemory, lat: latMemStore, form: fRtMem, store: true, memSize: 4},
	OpLwc1: {name: "l.s", class: FUMemory, lat: latMemLoad, form: fRdMem, load: true, memSize: 4},
	OpLdc1: {name: "l.d", class: FUMemory, lat: latMemLoad, form: fRdMem, load: true, memSize: 8},
	OpSwc1: {name: "s.s", class: FUMemory, lat: latMemStore, form: fRtMem, store: true, memSize: 4},
	OpSdc1: {name: "s.d", class: FUMemory, lat: latMemStore, form: fRtMem, store: true, memSize: 8},

	OpBeq:  {name: "beq", class: FUBranch, lat: latBranch, form: fRsRtTarget, branch: true},
	OpBne:  {name: "bne", class: FUBranch, lat: latBranch, form: fRsRtTarget, branch: true},
	OpBlez: {name: "blez", class: FUBranch, lat: latBranch, form: fRsTarget, branch: true},
	OpBgtz: {name: "bgtz", class: FUBranch, lat: latBranch, form: fRsTarget, branch: true},
	OpBltz: {name: "bltz", class: FUBranch, lat: latBranch, form: fRsTarget, branch: true},
	OpBgez: {name: "bgez", class: FUBranch, lat: latBranch, form: fRsTarget, branch: true},
	OpJ:    {name: "j", class: FUBranch, lat: latBranch, form: fTarget, jump: true},
	OpJal:  {name: "jal", class: FUBranch, lat: latBranch, form: fTarget, jump: true, defaultRd: RegRA},
	OpJr:   {name: "jr", class: FUBranch, lat: latBranch, form: fRs, jump: true},
	OpJalr: {name: "jalr", class: FUBranch, lat: latBranch, form: fRdRs, jump: true, defaultRd: RegRA},
	OpBc1t: {name: "bc1t", class: FUBranch, lat: latBranch, form: fTarget, branch: true, readsFCC: true},
	OpBc1f: {name: "bc1f", class: FUBranch, lat: latBranch, form: fTarget, branch: true, readsFCC: true},

	OpAddS:  {name: "add.s", class: FUFloat, lat: latSPAddSub, form: fRdRsRt},
	OpSubS:  {name: "sub.s", class: FUFloat, lat: latSPAddSub, form: fRdRsRt},
	OpMulS:  {name: "mul.s", class: FUFloat, lat: latSPMul, form: fRdRsRt},
	OpDivS:  {name: "div.s", class: FUFloat, lat: latSPDiv, form: fRdRsRt},
	OpAddD:  {name: "add.d", class: FUFloat, lat: latDPAddSub, form: fRdRsRt},
	OpSubD:  {name: "sub.d", class: FUFloat, lat: latDPAddSub, form: fRdRsRt},
	OpMulD:  {name: "mul.d", class: FUFloat, lat: latDPMul, form: fRdRsRt},
	OpDivD:  {name: "div.d", class: FUFloat, lat: latDPDiv, form: fRdRsRt},
	OpNegD:  {name: "neg.d", class: FUFloat, lat: latDPAddSub, form: fRdRs},
	OpAbsD:  {name: "abs.d", class: FUFloat, lat: latDPAddSub, form: fRdRs},
	OpMovD:  {name: "mov.d", class: FUFloat, lat: latDPAddSub, form: fRdRs},
	OpSqrtD: {name: "sqrt.d", class: FUFloat, lat: latDPDiv, form: fRdRs},

	OpCEqD: {name: "c.eq.d", class: FUFloat, lat: latDPAddSub, form: fRsRt, setsFCC: true},
	OpCLtD: {name: "c.lt.d", class: FUFloat, lat: latDPAddSub, form: fRsRt, setsFCC: true},
	OpCLeD: {name: "c.le.d", class: FUFloat, lat: latDPAddSub, form: fRsRt, setsFCC: true},

	OpMtc1:  {name: "mtc1", class: FUFloat, lat: latDPAddSub, form: fRdRs},
	OpMfc1:  {name: "mfc1", class: FUFloat, lat: latDPAddSub, form: fRdRs},
	OpCvtDW: {name: "cvt.d.w", class: FUFloat, lat: latDPAddSub, form: fRdRs},
	OpCvtWD: {name: "cvt.w.d", class: FUFloat, lat: latDPAddSub, form: fRdRs},
	OpCvtSD: {name: "cvt.s.d", class: FUFloat, lat: latDPAddSub, form: fRdRs},
	OpCvtDS: {name: "cvt.d.s", class: FUFloat, lat: latDPAddSub, form: fRdRs},

	OpRelease: {name: "release", class: FUSimpleInt, lat: latOne, form: fRs},
	OpSyscall: {name: "syscall", class: FUSimpleInt, lat: latOne, form: fNone,
		uses: []Reg{RegV0, RegA0, RegA1, RegA2, RegA3}, def: RegV0},
}

// Predicate bits of opFact.flags.
const (
	flagLoad = 1 << iota
	flagStore
	flagBranch
	flagJump
	flagControl
	flagImm
	flagFCC
	flagReadsFCC
	flagTarget
	flagWritesRd
)

// opFact packs what the simulators ask of an opcode on their
// per-instruction hot paths, derived from opInfos once: any one query is
// a single four-byte load instead of an indexing of the wide row.
type opFact struct {
	flags uint16
	nsrc  uint8 // how many of Rs, Rt (in that order) the operation reads
	lat   latClass
}

var opFacts = func() (t [numOps]opFact) {
	for op := range t {
		in, f := &opInfos[op], &t[op]
		set := func(on bool, bits uint16) {
			if on {
				f.flags |= bits
			}
		}
		set(in.load, flagLoad)
		set(in.store, flagStore)
		set(in.branch, flagBranch|flagControl)
		set(in.jump, flagJump|flagControl)
		set(in.setsFCC, flagFCC)
		set(in.readsFCC, flagReadsFCC)
		set(in.defaultRd != RegZero, flagWritesRd)
		for _, s := range in.form {
			set(s == SlotRd, flagWritesRd)
			set(s == SlotImm || s == SlotMem, flagImm)
			set(s == SlotTarget, flagTarget)
			if s == SlotRs || s == SlotRt || s == SlotMem {
				f.nsrc++
			}
		}
		f.lat = in.lat
	}
	return t
}()

// Valid reports whether op names a defined operation.
func (op Op) Valid() bool { return op < numOps && opInfos[op].name != "" }

// String returns the assembly mnemonic for the operation.
func (op Op) String() string {
	if op.Valid() {
		return opInfos[op].name
	}
	return "bad-op"
}

// Class returns the functional unit class that services op.
func (op Op) Class() FUClass { return opInfos[op].class }

func (op Op) has(bits uint16) bool { return opFacts[op].flags&bits != 0 }

// IsLoad reports whether op reads memory.
func (op Op) IsLoad() bool { return op.has(flagLoad) }

// IsStore reports whether op writes memory.
func (op Op) IsStore() bool { return op.has(flagStore) }

// IsMem reports whether op accesses memory.
func (op Op) IsMem() bool { return op.has(flagLoad | flagStore) }

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return op.has(flagBranch) }

// IsJump reports whether op is an unconditional control transfer.
func (op Op) IsJump() bool { return op.has(flagJump) }

// IsControl reports whether op can redirect the program counter.
func (op Op) IsControl() bool { return op.has(flagControl) }

// HasImm reports whether op uses the immediate field.
func (op Op) HasImm() bool { return op.has(flagImm) }

// HasTarget reports whether op uses the target field: the control
// transfers that name their destination in the instruction.
func (op Op) HasTarget() bool { return op.has(flagTarget) }

// SetsFCC reports whether op writes the FP condition flag.
func (op Op) SetsFCC() bool { return op.has(flagFCC) }

// ReadsFCC reports whether op reads the FP condition flag.
func (op Op) ReadsFCC() bool { return op.has(flagReadsFCC) }

// WritesRd reports whether op writes the register its Rd field names.
func (op Op) WritesRd() bool { return op.has(flagWritesRd) }

// NumSources returns how many of the register fields Rs, Rt (in that
// order) op reads.
func (op Op) NumSources() int { return int(opFacts[op].nsrc) }

// MemSize returns the access width in bytes for memory operations, 0 for
// everything else.
func (op Op) MemSize() int { return int(opInfos[op].memSize) }

// Form returns op's operand slots in assembly order. The slice is the
// table's own: read it, do not write it.
func (op Op) Form() []Slot { return opInfos[op].form }

// DefaultRd returns the register the assembler puts in Rd when the
// written form leaves it out ($ra for jal and one-operand jalr), or
// RegZero.
func (op Op) DefaultRd() Reg { return opInfos[op].defaultRd }

// Implicit returns the registers op reads and the register it writes
// besides those its register fields name (syscall: $v0, $a0-$a3; $v0).
func (op Op) Implicit() (uses []Reg, def Reg) { return opInfos[op].uses, opInfos[op].def }

// ImmForm returns the operation a register form turns into when its
// third operand is a constant (add -> addi).
func (op Op) ImmForm() (Op, bool) {
	twin := opInfos[op].immOp
	return twin, twin != OpNop
}

// opsByName maps mnemonics back to opcodes for the assembler.
var opsByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := Op(0); op < numOps; op++ {
		if opInfos[op].name != "" {
			m[opInfos[op].name] = op
		}
	}
	return m
}()

// OpByName returns the operation with the given mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}
