(** Suite-level performance snapshots and the regression gate behind
    [BENCH_exom.json], [exom bench --all --json] and [exom regress].

    A snapshot is one run of the whole benchmark suite reduced to an
    {!Exom_obs.Metrics} registry and written as a plain obs JSONL log
    ({!Exom_obs.Export.write_metrics}), so [exom stats] renders it and
    [exom audit --metrics] diffs two of them.  Its names:
    - [suite.<bench>.<fault>.found] (0/1) and the fault's
      [verifications], [queries], [iterations], [edges], [prunings];
    - [suite.faults], [suite.located], [suite.queries],
      [suite.switched_runs], [suite.interp_runs], [suite.jobs];
    - [store.prime.*] and [store.warm.*]: [hits], [queries] and
      [switched_runs] of a priming and a warm pass over one disk store;
    - with a corpus leg: [corpus.seed], [corpus.count], [corpus.total],
      [corpus.located], [corpus.failed] (no_failure + error rows) and
      the [corpus.iterations] / [corpus.verifications] summed over the
      rows that ran;
    - timers, one observation each: [suite.wall] (cold pass),
      [suite.traced_wall] (the cold pass with span recording on),
      [suite.verify] (switched-run seconds summed over workers, not
      wall time) and [corpus.wall].

    Every counter is deterministic for a given program and
    configuration; only the timers are noisy. *)

(** Run the full suite and reduce it to a snapshot: a cold pass (no
    store — the per-fault counts and suite totals), a traced re-run of
    it, then a priming pass and a warm pass over one shared disk store
    (each fault opens a fresh handle, so warm hits are honest disk
    hits).  [jobs] sizes the verification pool (default: [EXOM_JOBS]
    via the default pool).  [config] overrides the locator's
    configuration on every leg — e.g.
    [{ Demand.default_config with ranking = None }] measures the
    static-order control for the rank gate.  [corpus_count] adds the
    corpus leg: a [corpus_count]-triple campaign generated at seed 1. *)
val run_suite :
  ?config:Exom_core.Demand.config ->
  ?jobs:int ->
  ?corpus_count:int ->
  unit ->
  Exom_obs.Metrics.t

(** One line: located faults, switched and interpreter runs, the warm
    pass's health and the corpus leg's outcome. *)
val summary : Exom_obs.Metrics.t -> string

(** Load a snapshot: a registry log, or a pre-registry [exom.bench]
    v1-v4 line (the file's last non-empty line, so old history files
    read too) mapped onto the same names.  A torn registry log is an
    error, not a salvage. *)
val load : string -> (Exom_obs.Metrics.t, string) result

(** [drift ~tolerance ~time_tolerance older newer]:
    {!Exom_obs.Metrics.drift} under the snapshot's rule table.
    - located flags ([*.found], [suite.located], [corpus.located]):
      [Down] at zero tolerance, whatever [tolerance] says;
    - [corpus.seed] / [corpus.count]: [Both] at zero — another corpus
      is no baseline;
    - the deterministic costs ([suite.queries],
      [suite.switched_runs], [suite.interp_runs],
      [store.warm.switched_runs], [corpus.failed],
      [corpus.iterations], [corpus.verifications]): [Up] at
      [tolerance];
    - each store pass's hit rate, compared as [store.<pass>.hit_ppm]:
      [Down] at [tolerance];
    - each timer measured on both sides, compared as [<timer>.us]:
      [Up] at [time_tolerance].
    A metric [older] never recorded has no baseline and is not
    compared; one [newer] lost is a vanished metric. *)
val drift :
  tolerance:float ->
  time_tolerance:float ->
  Exom_obs.Metrics.t ->
  Exom_obs.Metrics.t ->
  Exom_obs.Metrics.drift_finding list
