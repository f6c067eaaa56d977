(* Execution observers; the event contract is in observer.mli. Both kinds
   fold the SAME rolling hash over the events they see, so a collecting
   observer's digest is comparable with a digesting one's for the same run
   — and stays exact past the collection cap, which only bounds how many
   events are *kept*, never how many are counted or hashed. *)

let hash_seed = 0x3bf29ce484222325

let mix acc v = (acc lxor (v land max_int)) * 0x100000001b3 land max_int

let mix4 acc tid uid pc tag = mix (mix (mix (mix acc tid) uid) pc) tag

type collector = {
  col_evs : Rt.obs list ref; (* reversed kept events *)
  col_max : int;
  col_hash : int ref;
  col_n : int ref; (* true event count, kept or not *)
  col_dropped : int ref; (* events past the cap *)
}

type t =
  | Digesting of int ref * int ref (* rolling hash, event count *)
  | Collecting of collector

let attach_digest (vm : Rt.t) =
  let h = ref hash_seed and n = ref 0 in
  vm.hooks.h_observe <-
    Some
      (fun _vm tid uid pc tag ->
        incr n;
        h := mix4 !h tid uid pc tag);
  Digesting (h, n)

let attach_collect ?(max_events = 2_000_000) (vm : Rt.t) =
  let c =
    {
      col_evs = ref [];
      col_max = max_events;
      col_hash = ref hash_seed;
      col_n = ref 0;
      col_dropped = ref 0;
    }
  in
  vm.hooks.h_observe <-
    Some
      (fun _vm tid uid pc tag ->
        incr c.col_n;
        c.col_hash := mix4 !(c.col_hash) tid uid pc tag;
        if !(c.col_n) <= c.col_max then
          c.col_evs :=
            { Rt.o_tid = tid; o_uid = uid; o_pc = pc; o_tag = tag }
            :: !(c.col_evs)
        else incr c.col_dropped);
  Collecting c

let detach (vm : Rt.t) = vm.hooks.h_observe <- None

let digest = function
  | Digesting (h, _) -> !h
  | Collecting c -> !(c.col_hash)

let count = function
  | Digesting (_, n) -> !n
  | Collecting c -> !(c.col_n)

let dropped = function Digesting _ -> 0 | Collecting c -> !(c.col_dropped)

let events = function
  | Collecting c -> List.rev !(c.col_evs)
  | Digesting _ -> invalid_arg "Observer.events: digesting observer"

let pp_obs ppf (o : Rt.obs) =
  Fmt.pf ppf "t%d m%d@%d#%d" o.o_tid o.o_uid o.o_pc o.o_tag
