// Package flow is the ldpflow fixture: a miniature est package with a
// raw Tuple type, a wire Report type, and a Perturb mechanism, plus
// client-path functions that leak, sanitize, or hand off raw values.
package flow

import (
	"fmt"
)

// Tuple mirrors est.Tuple: one user's raw, pre-perturbation record.
type Tuple struct {
	Values []float64
	Cats   []int
}

// Report mirrors est.Report: the wire unit.
type Report struct {
	Dims   []uint32
	Values []float64
}

// Mech is a stand-in randomizer.
type Mech struct{ Eps float64 }

// Perturb is the sanitizer: its result is a releasable value.
func (m Mech) Perturb(v, eps float64) float64 { return v + eps }

// LogRaw leaks a raw value straight into output.
func LogRaw(t Tuple) {
	fmt.Println(t.Values[0]) // want "raw tuple value reaches fmt.Println"
}

// LogDerived leaks through a local and arithmetic.
func LogDerived(t Tuple) {
	v := t.Values[0]
	sum := v * 2
	fmt.Printf("%v\n", sum) // want "raw tuple value reaches fmt.Printf"
}

// LogPerturbed is clean: the value passed a randomizer.
func LogPerturbed(m Mech, t Tuple) {
	p := m.Perturb(t.Values[0], 1)
	fmt.Println(p)
}

// LeakReport builds the wire unit from raw values: the deliberately
// injected unsanitized source→sink flow.
func LeakReport(t Tuple) Report {
	var rep Report
	rep.Values = t.Values
	return rep // want "est.Report built from raw tuple values"
}

// MakeReport is the legitimate client half: every released value
// passes Perturb.
func MakeReport(m Mech, t Tuple) Report {
	rep := Report{Values: make([]float64, len(t.Values))}
	for i, v := range t.Values {
		rep.Values[i] = m.Perturb(v, 0.5)
	}
	return rep
}

// logValue pipes its argument to output; only callers with raw
// arguments are findings.
func logValue(v float64) {
	fmt.Println(v)
}

// LogThroughHelper leaks interprocedurally through logValue.
func LogThroughHelper(t Tuple) {
	logValue(t.Values[1]) // want "flows into logValue"
}

func id(v float64) float64 { return v }

// LogThroughIdentity leaks through a taint-preserving helper result.
func LogThroughIdentity(t Tuple) {
	fmt.Println(id(t.Values[0])) // want "raw tuple value reaches fmt.Println"
}

// Validate leaks a raw value into an error string.
func Validate(t Tuple) error {
	for _, v := range t.Values {
		if v > 1 {
			return fmt.Errorf("value %v out of range", v) // want "raw tuple value reaches fmt.Errorf"
		}
	}
	return nil
}

// LogMaybe is tainted on one branch only; may-semantics still flags
// the join.
func LogMaybe(t Tuple, b bool) {
	v := 0.0
	if b {
		v = t.Values[0]
	}
	fmt.Println(v) // want "raw tuple value reaches fmt.Println"
}

// LogSuppressed documents an intentional exception.
func LogSuppressed(t Tuple) {
	//hdrvet:ignore ldpflow -- fixture: documented offline debug path
	fmt.Println(t.Values[0])
}

// LogLen releases shape, not values: clean.
func LogLen(t Tuple) {
	fmt.Println(len(t.Values))
}

// Fixed mirrors ldp.Fixed: a mechanism bound to one budget, perturbing
// through an interface method named Perturb.
type Fixed interface {
	Perturb(v float64) float64
}

// MakeReportFixed is the client half over per-dimension fixed-budget
// forms: every released value passes Perturb, so it is clean.
func MakeReportFixed(forms []Fixed, t Tuple) Report {
	rep := Report{Values: make([]float64, len(t.Values))}
	for i, v := range t.Values {
		rep.Values[i] = forms[i].Perturb(v)
	}
	return rep
}

// LeakReportFixed releases the raw value beside the perturbed one.
func LeakReportFixed(f Fixed, t Tuple) Report {
	rep := Report{Values: make([]float64, 0, 2)}
	rep.Values = append(rep.Values, f.Perturb(t.Values[0]), t.Values[1])
	return rep // want "est.Report built from raw tuple values"
}
