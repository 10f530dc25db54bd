(** Helpers of the exom benchmark that do not touch the locator: the
    metric catalogue, the percentile rule, and the result-line codec.
    Kept apart from the harness so they can be tested on their own. *)

(** {2 Workloads and metrics} *)

(** Workload names, in the order [BENCHMARK.json] lists them. *)
val workloads : string list

type metric = {
  name : string;
  unit : string;
  declared : bool;
      (** listed in [BENCHMARK.json] and carried in the result line;
          the others are printed on the lines before it *)
  applies : string list;  (** workloads that emit it *)
}

(** End-to-end metrics, measured with tracing off ([--trace 0]). *)
val end_to_end : metric list

(** Per-layer metrics, measured by the traced run ([--trace 1]). *)
val per_layer : metric list

(** The catalogue entries a workload emits in the given mode. *)
val metrics_for : trace:bool -> string -> metric list

(** Metric names match [[A-Za-z0-9_.-]+] and start with a letter or a
    digit. *)
val valid_name : string -> bool

(** {2 Statistics} *)

(** Samples that must lie strictly beyond a reported percentile. *)
val min_beyond : int

(** [percentile p xs] is the nearest-rank [p]-quantile ([0 < p < 1]) of
    [xs]: the smallest sample with at least a share [p] of the samples
    at or below it.  [Error] unless at least {!min_beyond} samples lie
    above its rank. *)
val percentile : float -> float list -> (float, string) result

(** Fewest samples for which [percentile p] succeeds. *)
val samples_needed : float -> int

(** Middle value (mean of the two middle ones for an even count); [nan]
    for an empty list. *)
val median : float list -> float

(** {2 The result line} *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float * string) list;  (** name, value, unit *)
}

(** One-line JSON object with exactly the keys [correct], [attempted],
    [failed] and [metrics]; each metric is [{"value": v, "unit": u}]
    with [v] printed with every digit it has. *)
val result_to_string : result -> string

val result_of_string : string -> (result, string) Stdlib.result
