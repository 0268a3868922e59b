(** Content-addressed artifact store: an in-memory table shared across
    domains for the lifetime of one process.

    Values are stored as [Marshal] snapshots taken at {!put} time, and
    every hit deserializes a fresh copy — so neither the producer
    mutating its result after the store nor a consumer mutating a hit
    can poison the cache.  Only pure-data artifacts may be cached
    (no closures, no custom blocks beyond the stdlib's); all flow
    artifacts satisfy this.  Nothing is persisted, so an entry is always
    revived by the same code that stored it.

    Thread-safety: all operations are [Mutex]-guarded and safe to call
    concurrently from the worker-pool domains.  Callers compute between
    {!find} and {!put} {e outside} the lock, so concurrent misses of the
    same key may both compute (identical results, last store wins) but
    never deadlock. *)

type t

val none : t
(** The disabled cache: every lookup misses, every store is dropped, no
    statistics accumulate.  [--no-cache]. *)

val create : unit -> t
(** Fresh, empty cache. *)

val enabled : t -> bool

(** {2 Lookup and insert} *)

val find : t -> Key.t -> 'a option
(** Counts as a hit or miss.  The ['a] is trusted: callers must respect
    the one-stage-one-type key discipline (see {!Key}). *)

val put : t -> Key.t -> 'a -> unit
(** Serializes [v] immediately; raises [Invalid_argument] (from
    [Marshal]) if [v] contains functional values. *)

(** {2 Statistics} *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  hit_bytes : int;  (** serialized size of returned hits *)
  store_bytes : int;  (** serialized size of stored values *)
  mem_entries : int;
  mem_bytes : int;
  stages : (string * (int * int * int)) list;
      (** per stage: (hits, misses, stores), sorted by stage name *)
}

val stats : t -> stats
val hit_rate : stats -> float
