module Trace = Vpga_obs.Trace

(* Entry payloads are [Marshal]-encoded snapshots: [put] serializes
   immediately (so later in-place mutation of the stored artifact can
   never poison the entry) and every hit deserializes a fresh copy (so
   callers may freely mutate what they get back).  Type safety rests on
   the key discipline documented in {!Key}: one stage name, one value
   type.  Entries never outlive the process, so they always come from
   the code that reads them. *)

type stage_stats = {
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_stores : int;
}

type live = {
  mutex : Mutex.t;
  mem : (string, bytes) Hashtbl.t;  (* Key.id -> payload *)
  by_stage : (string, stage_stats) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable hit_bytes : int;
  mutable store_bytes : int;
}

type t = Disabled | Live of live

type stats = {
  hits : int;
  misses : int;
  stores : int;
  hit_bytes : int;
  store_bytes : int;
  mem_entries : int;
  mem_bytes : int;
  stages : (string * (int * int * int)) list;
}

let none = Disabled
let enabled = function Disabled -> false | Live _ -> true

let create () =
  Live
    {
      mutex = Mutex.create ();
      mem = Hashtbl.create 64;
      by_stage = Hashtbl.create 16;
      hits = 0;
      misses = 0;
      stores = 0;
      hit_bytes = 0;
      store_bytes = 0;
    }

let locked l f =
  Mutex.lock l.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock l.mutex) f

let stage_slot l stage =
  match Hashtbl.find_opt l.by_stage stage with
  | Some s -> s
  | None ->
      let s = { s_hits = 0; s_misses = 0; s_stores = 0 } in
      Hashtbl.add l.by_stage stage s;
      s

let find : type a. t -> Key.t -> a option =
 fun t k ->
  match t with
  | Disabled -> None
  | Live l -> (
      let stage = Key.stage k in
      match locked l (fun () -> Hashtbl.find_opt l.mem (Key.id k)) with
      | None ->
          locked l (fun () ->
              l.misses <- l.misses + 1;
              let s = stage_slot l stage in
              s.s_misses <- s.s_misses + 1);
          Trace.emit "cache.misses" 1.0;
          None
      | Some payload ->
          let n = Bytes.length payload in
          locked l (fun () ->
              l.hits <- l.hits + 1;
              l.hit_bytes <- l.hit_bytes + n;
              let s = stage_slot l stage in
              s.s_hits <- s.s_hits + 1);
          Trace.emit "cache.hits" 1.0;
          Trace.emit "cache.bytes" (float_of_int n);
          Some (Marshal.from_bytes payload 0))

let put t k v =
  match t with
  | Disabled -> ()
  | Live l ->
      let payload = Marshal.to_bytes v [] in
      locked l (fun () ->
          Hashtbl.replace l.mem (Key.id k) payload;
          l.stores <- l.stores + 1;
          l.store_bytes <- l.store_bytes + Bytes.length payload;
          let s = stage_slot l (Key.stage k) in
          s.s_stores <- s.s_stores + 1)

let stats = function
  | Disabled ->
      {
        hits = 0;
        misses = 0;
        stores = 0;
        hit_bytes = 0;
        store_bytes = 0;
        mem_entries = 0;
        mem_bytes = 0;
        stages = [];
      }
  | Live l ->
      locked l (fun () ->
          {
            hits = l.hits;
            misses = l.misses;
            stores = l.stores;
            hit_bytes = l.hit_bytes;
            store_bytes = l.store_bytes;
            mem_entries = Hashtbl.length l.mem;
            mem_bytes =
              Hashtbl.fold (fun _ p acc -> acc + Bytes.length p) l.mem 0;
            stages =
              List.sort compare
                (Hashtbl.fold
                   (fun stage s acc ->
                     (stage, (s.s_hits, s.s_misses, s.s_stores)) :: acc)
                   l.by_stage []);
          })

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
