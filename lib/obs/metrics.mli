(** The metrics registry: counters, gauges and timers addressed by
    dot-separated names ("verify.run", "store.hits") that form the
    metric tree rendered by {!render} and [exom stats].

    This is the successor of [Exom_sched.Tally]: worker-local registries
    accumulate privately under the scheduler and are merged with
    {!absorb} on the coordinator in submission order.  Counters and
    timer counts merge by sum, gauges by max, so every non-wall-clock
    figure is independent of the job count. *)

type kind = Counter | Gauge | Timer

type metric = {
  name : string;
  kind : kind;
  mutable count : int;  (** timer observations / gauge sets *)
  mutable value : int;  (** counter total / gauge high-water mark *)
  mutable seconds : float;  (** timer sum (wall clock) *)
  mutable min_s : float;  (** timer minimum; [infinity] when empty *)
  mutable max_s : float;  (** timer maximum; [neg_infinity] when empty *)
}

type t

val create : unit -> t

val incr : t -> string -> unit
val add : t -> string -> int -> unit

(** High-water gauge: keeps the maximum value ever set. *)
val gauge : t -> string -> int -> unit

(** Record one timer observation of [s] wall-clock seconds. *)
val observe : t -> string -> float -> unit

(** [timed t name f] runs [f], charging one observation and its
    wall-clock duration to the timer [name] even when [f] raises (an
    injected fault aborting a re-execution still counts). *)
val timed : t -> string -> (unit -> 'a) -> 'a

val find : t -> string -> metric option

(** Rebuild a metric wholesale (deserialization; see {!Export}). *)
val restore :
  t ->
  kind:kind ->
  name:string ->
  count:int ->
  value:int ->
  seconds:float ->
  min_s:float ->
  max_s:float ->
  unit

(** 0 / 0.0 for absent or differently-kinded names. *)
val counter_value : t -> string -> int

val timer_count : t -> string -> int
val timer_seconds : t -> string -> float

(** Merge [t] into [into] (sum counters and timers, max gauges).  Call
    in submission order on the coordinator; totals are then independent
    of how work was spread over domains. *)
val absorb : into:t -> t -> unit

(** All metrics, sorted by name. *)
val to_list : t -> metric list

(** Indented metric tree.  [timings:false] suppresses every wall-clock
    figure, yielding output that is bit-identical across job counts (the
    observability determinism contract). *)
val render : ?timings:bool -> t -> string

(** Side-by-side table over the union of both registries' names, with
    absolute and relative deltas of each metric's deterministic scalar
    (counter/gauge value, timer count); timer wall-clock sums get their
    own row unless [timings:false].  Backs [exom stats --diff]. *)
val render_diff : ?timings:bool -> t -> t -> string

(** {2 Drift: the typed, gateable diff}

    One finding per metric whose deterministic scalar moved, with a
    direction-aware tolerance verdict.  Backs the metric leg of
    [exom audit] and [exom regress]. *)

(** Which movement counts against the tolerance: [Up] — growth is
    drift (costs, e.g. ["verify.run"]); [Down] — shrinkage is drift
    (health figures, e.g. ["store.hits"]); [Both] — any movement. *)
type direction = Up | Down | Both

type drift_finding = {
  d_name : string;
  d_kind : kind;
  d_older : int;
  d_newer : int;
  d_delta : int;
  d_rel : float;
      (** relative to the older value; [infinity]/[neg_infinity] when
          the metric appeared or vanished *)
  d_direction : direction;
  d_breach : bool;  (** beyond [tolerance] in the counted direction *)
}

(** [drift ?rule older newer] — only metrics whose scalar moved are
    reported.  [rule name] is the metric's direction and relative
    tolerance, or [None] to leave it out of the comparison; [d_breach]
    is set when the movement is in the counted direction and its
    relative size exceeds the tolerance.  The default rule is [Both] at
    [0.0] for every name: any movement breaches. *)
val drift :
  ?rule:(string -> (direction * float) option) -> t -> t -> drift_finding list

val has_drift : drift_finding list -> bool

(** One line per finding, breaches marked [DRIFT]. *)
val render_drift : drift_finding list -> string
