package main

import (
	"context"
	"fmt"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/mdqa"
)

// layerPrep compiles a context the way the quality and engine layers
// do (ontology → chase program and base instance, mappings + quality
// rules + version rules → stratified eval program), so the traced run
// can call chase.State and eval.State itself and time the chase and
// the derived layer apart. Engine sessions hide both behind Apply.
type layerPrep struct {
	cp     *chase.CompiledProgram
	base   *storage.Instance
	strata [][]*eval.Rule
	width  int
}

func newLayerPrep(f *mdqa.File, width int) (*layerPrep, error) {
	cfg, err := f.ContextConfig()
	if err != nil {
		return nil, err
	}
	comp, err := f.Ontology.Compile(cfg.Compile)
	if err != nil {
		return nil, err
	}
	prog := eval.NewProgram()
	prog.Add(cfg.Mappings...)
	prog.Add(cfg.QualityRules...)
	for _, v := range cfg.Versions {
		prog.Add(v.Rules...)
	}
	strata, err := prog.Stratify()
	if err != nil {
		return nil, err
	}
	cp, err := chase.Compile(comp.Program, comp.Instance)
	if err != nil {
		return nil, err
	}
	return &layerPrep{cp: cp, base: comp.Instance, strata: strata, width: width}, nil
}

// layered is a session held as its two layers.
type layered struct {
	cs *chase.State
	es *eval.State
}

// open saturates base+d and evaluates the derived layer, with spans
// chase.saturate and eval.init.
func (lp *layerPrep) open(ctx context.Context, d *storage.Instance, t *tracer, op int, parent int32) (*layered, error) {
	inst := lp.base.CloneDetached()
	if err := storage.Merge(inst, d); err != nil {
		return nil, err
	}
	cs := lp.cp.NewState(inst, chase.Options{Parallelism: lp.width})
	cs.Replan()
	sp := t.begin("chase.saturate", op, parent)
	err := cs.Chase(ctx)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	if !cs.Result().Saturated {
		return nil, fmt.Errorf("chase did not saturate")
	}
	l := &layered{cs: cs, es: eval.NewState(lp.strata, cs.Instance().Clone())}
	l.es.SetParallelism(lp.width)
	sp = t.begin("eval.init", op, parent)
	err = l.es.Init(ctx)
	t.end(sp)
	return l, err
}

// apply extends both layers by one batch, with spans chase.extend and
// eval.extend (or eval.init when the derived layer must be rebuilt).
func (l *layered) apply(ctx context.Context, delta []datalog.Atom, t *tracer, op int, parent int32) error {
	ci := l.cs.Instance()
	lens := map[string]int{}
	for _, name := range ci.RelationNames() {
		lens[name] = ci.Relation(name).Len()
	}
	sp := t.begin("chase.extend", op, parent)
	info, err := l.cs.Extend(ctx, delta)
	t.end(sp)
	if err != nil {
		return err
	}
	if info.Merged > 0 || !l.es.Incremental() {
		l.es.Reset(ci.Clone())
		sp = t.begin("eval.init", op, parent)
		err = l.es.Init(ctx)
		t.end(sp)
		return err
	}
	var facts []eval.Fact
	for _, name := range ci.RelationNames() {
		for _, row := range ci.Relation(name).Rows()[lens[name]:] {
			facts = append(facts, eval.Fact{Pred: name, Row: row})
		}
	}
	sp = t.begin("eval.extend", op, parent)
	_, err = l.es.Extend(ctx, facts)
	t.end(sp)
	return err
}
