// Package mdqa is the public facade of the multidimensional
// data-quality engine — a Go reproduction of "Extending contexts with
// ontologies for multidimensional data quality assessment" (Milani,
// Bertossi & Ariyan, ICDE 2014) grown into a serving-oriented system.
//
// The workflow mirrors the paper's Figure 2:
//
//  1. Build a multidimensional ontology: dimensions (hierarchies of
//     categories with member rollups), categorical relations, and
//     dimensional Datalog± rules and constraints. See NewOntology,
//     NewDimensionSchema, NewDimension and NewTGD.
//
//  2. Wrap the ontology in a quality Context with functional options:
//
//     qc, err := mdqa.NewContext(ontology,
//     mdqa.WithMapping(mapRule),
//     mdqa.WithQualityRule(guideline),
//     mdqa.WithQualityVersion("Measurements", "Measurements_q", vRule),
//     mdqa.WithChaseBound(1000))
//
//     Contexts are immutable: all validation happens in NewContext and
//     two contexts never share option state.
//
//  3. Assess an instance: qc.Assess(ctx, d) runs the one-shot
//     pipeline (compile, merge, chase, evaluate, measure). Serving
//     processes instead call qc.Prepare(ctx) once and open sessions:
//     Session.Apply(ctx, delta) extends the fixpoint incrementally,
//     Session.Snapshot() hands concurrent readers frozen views.
//
//  4. Consume results: Assessment carries materialized quality
//     versions and departure measures; Snapshot streams quality
//     version tuples and clean query answers as iter.Seq iterators,
//     so large assessments never materialize whole answer sets.
//
// Every entry point that can do nontrivial work takes a leading
// context.Context and honors cancellation. Failures are structured:
// match ErrInconsistent, ErrUnsafeRule, ErrUnknownRelation and
// ErrBoundExceeded with errors.Is, and recover detail (constraint
// violations, the offending rule, the exceeded bound) with errors.As
// against *InconsistentError, *UnsafeRuleError, *UnknownRelationError
// and *BoundExceededError.
//
// The facade wraps the internal engine packages without forking them:
// Assess, sessions and snapshots all run on the prepared/incremental
// execution path (compiled join plans over interned terms, semi-naive
// delta chasing, watermark snapshots) described in PERF.md.
package mdqa
