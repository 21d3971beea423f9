package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDestNoWriteOps(t *testing.T) {
	noDest := []Op{OpNop, OpJ, OpJr, OpRelease, OpSyscall, OpSb, OpSh, OpSw,
		OpSwc1, OpSdc1, OpBeq, OpBne, OpBlez, OpBgtz, OpBltz, OpBgez,
		OpBc1t, OpBc1f, OpCEqD, OpCLtD, OpCLeD}
	for _, op := range noDest {
		in := Instr{Op: op, Rd: RegT0, Rs: RegA0, Rt: RegA1}
		if d := in.Dest(); d != RegZero {
			t.Errorf("%v.Dest() = %v, want $zero", op, d)
		}
	}
}

func TestDestWriteOps(t *testing.T) {
	writes := []Op{OpAdd, OpAddi, OpMul, OpLw, OpLb, OpLui, OpJal, OpJalr,
		OpLdc1, OpAddD, OpMfc1, OpMtc1, OpSlt}
	for _, op := range writes {
		in := Instr{Op: op, Rd: RegT0, Rs: RegA0, Rt: RegA1}
		if d := in.Dest(); d != RegT0 {
			t.Errorf("%v.Dest() = %v, want $t0", op, d)
		}
	}
}

func TestSources(t *testing.T) {
	cases := []struct {
		in   Instr
		want []Reg
	}{
		{Instr{Op: OpAdd, Rd: RegT0, Rs: RegA0, Rt: RegA1}, []Reg{RegA0, RegA1}},
		{Instr{Op: OpAddi, Rd: RegT0, Rs: RegA0, Imm: 4}, []Reg{RegA0}},
		{Instr{Op: OpSw, Rs: RegSP, Rt: RegT0, Imm: 8}, []Reg{RegSP, RegT0}},
		{Instr{Op: OpLw, Rd: RegT0, Rs: RegSP, Imm: 8}, []Reg{RegSP}},
		{Instr{Op: OpJr, Rs: RegRA}, []Reg{RegRA}},
		{Instr{Op: OpJ}, nil},
		{Instr{Op: OpLui, Rd: RegT0, Imm: 1}, nil},
		{Instr{Op: OpRelease, Rs: RegT0}, []Reg{RegT0}},
		{Instr{Op: OpBeq, Rs: RegA0, Rt: RegA1}, []Reg{RegA0, RegA1}},
		{Instr{Op: OpBltz, Rs: RegA0}, []Reg{RegA0}},
	}
	for _, c := range cases {
		got := c.in.Sources()
		if len(got) != len(c.want) {
			t.Errorf("%v Sources = %v, want %v", c.in.Op, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v Sources = %v, want %v", c.in.Op, got, c.want)
			}
		}
	}
}

func TestSyscallSources(t *testing.T) {
	in := Instr{Op: OpSyscall}
	src := in.Sources()
	want := map[Reg]bool{RegV0: true, RegA0: true, RegA1: true, RegA2: true, RegA3: true}
	if len(src) != len(want) {
		t.Fatalf("syscall sources = %v", src)
	}
	for _, r := range src {
		if !want[r] {
			t.Errorf("unexpected syscall source %v", r)
		}
	}
}

func TestFCCTracking(t *testing.T) {
	cmp := Instr{Op: OpCLtD, Rs: F(0), Rt: F(2)}
	if !cmp.Op.SetsFCC() {
		t.Error("c.lt.d should set FCC")
	}
	br := Instr{Op: OpBc1t, Target: TextBase}
	if !br.ReadsFCC() {
		t.Error("bc1t should read FCC")
	}
	if (&Instr{Op: OpAdd}).ReadsFCC() {
		t.Error("add should not read FCC")
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpAdd, Rd: RegT0, Rs: RegA0, Rt: RegA1}, "add $t0, $a0, $a1"},
		{Instr{Op: OpAddi, Rd: RegT0, Rs: RegA0, Imm: -4}, "addi $t0, $a0, -4"},
		{Instr{Op: OpLw, Rd: RegT0, Rs: RegSP, Imm: 8}, "lw $t0, 8($sp)"},
		{Instr{Op: OpSw, Rs: RegSP, Rt: RegT0, Imm: 8}, "sw $t0, 8($sp)"},
		{Instr{Op: OpBeq, Rs: RegA0, Rt: RegZero, Target: 0x1040}, "beq $a0, $zero, 0x1040"},
		{Instr{Op: OpJ, Target: 0x1000}, "j 0x1000"},
		{Instr{Op: OpJr, Rs: RegRA}, "jr $ra"},
		{Instr{Op: OpRelease, Rs: RegT0}, "release $t0"},
		{Instr{Op: OpSyscall}, "syscall"},
		{Instr{Op: OpAddi, Rd: RegT0, Rs: RegT0, Imm: 1, Fwd: true}, "addi $t0, $t0, 1 !f"},
		{Instr{Op: OpBne, Rs: RegT0, Rt: RegZero, Target: 0x1000, Stop: StopNotTaken}, "bne $t0, $zero, 0x1000 !snt"},
		{Instr{Op: OpAddD, Rd: F(0), Rs: F(2), Rt: F(4)}, "add.d $f0, $f2, $f4"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if !op.Valid() {
			continue
		}
		back, ok := OpByName(op.String())
		if !ok || back != op {
			t.Errorf("OpByName(%q) = %v,%v", op.String(), back, ok)
		}
	}
}

func TestOpClassesCovered(t *testing.T) {
	// Every valid op must have a class and a positive latency, but loads
	// and stores, which complete at their data cache access and have none.
	lat := Table1()
	for op := Op(0); op < numOps; op++ {
		if !op.Valid() {
			t.Fatalf("op %d invalid inside range", op)
		}
		if op.Class() >= NumFUClasses {
			t.Errorf("%v has bad class", op)
		}
		if got := lat.Of(op); op.IsMem() != (got == 0) || got < 0 {
			t.Errorf("%v (mem %v) has latency %d", op, op.IsMem(), got)
		}
	}
}

func TestMemOpProperties(t *testing.T) {
	if !OpLw.has(flagLoad) || OpLw.has(flagStore) || OpLw.MemSize() != 4 {
		t.Error("lw properties wrong")
	}
	if !OpSdc1.has(flagStore) || OpSdc1.has(flagLoad) || OpSdc1.MemSize() != 8 {
		t.Error("s.d properties wrong")
	}
	if OpAdd.IsMem() || OpAdd.MemSize() != 0 {
		t.Error("add mem properties wrong")
	}
}

func randInstr(r *rand.Rand) Instr {
	for {
		op := Op(r.Intn(int(numOps)))
		if !op.Valid() {
			continue
		}
		in := Instr{
			Op: op,
			Rd: Reg(r.Intn(NumRegs)),
			Rs: Reg(r.Intn(NumRegs)),
			Rt: Reg(r.Intn(NumRegs)),
		}
		if op.IsControl() && op != OpJr && op != OpJalr {
			in.Target = uint32(r.Intn(1<<20) * 4)
		} else {
			in.Imm = int32(r.Uint32())
		}
		in.Fwd = r.Intn(2) == 0
		in.Stop = StopCond(r.Intn(4))
		return in
	}
}

// Property: encode/decode round-trips every instruction.
func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 2000; trial++ {
		in := randInstr(r)
		buf := in.Encode(nil)
		if len(buf) != EncodedSize {
			t.Fatalf("encoded size = %d", len(buf))
		}
		back, n, err := DecodeInstr(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != EncodedSize {
			t.Fatalf("decode consumed %d", n)
		}
		// Register fields are only 6 bits; mask the originals the same way.
		want := in
		want.Rd &= 0x3f
		want.Rs &= 0x3f
		want.Rt &= 0x3f
		if back != want {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", want, back)
		}
	}
}

func TestEncodeTextRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	text := make([]Instr, 64)
	for i := range text {
		text[i] = randInstr(r)
	}
	buf := EncodeText(text)
	back, err := DecodeText(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(text) {
		t.Fatalf("len = %d, want %d", len(back), len(text))
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeInstr(make([]byte, 3)); err == nil {
		t.Error("short decode should fail")
	}
	bad := make([]byte, EncodedSize)
	bad[0] = 0xff // opcode 255 invalid
	if _, _, err := DecodeInstr(bad); err == nil {
		t.Error("invalid opcode should fail")
	}
	if _, err := DecodeText(make([]byte, EncodedSize+1)); err == nil {
		t.Error("misaligned text should fail")
	}
}

func TestQuickMaskOfIdempotent(t *testing.T) {
	f := func(n uint8) bool {
		r := Reg(n % NumRegs)
		m := MaskOf(r, r)
		if r == RegZero {
			return m.Empty()
		}
		return m == 1<<uint(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
