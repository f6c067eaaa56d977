(* Schedule exploration on the farm: a parallel runner for
   [Explore.Driver.run], which owns the whole search. Each shard domain
   keeps its own warm-VM pool and runs one forced prefix at a time under
   the controlled scheduler; the dispatcher hands the probes back in
   submission order, so the search — and its report — is the one the
   in-process runner produces, whatever the shard count. Two schedules per
   shard in flight keep every shard busy while the loop consumes them in
   order. *)

module Driver = Explore.Driver

let runner ~shards : Driver.runner =
 fun job k ->
  let pools =
    Array.init shards (fun _ -> Warm.create ~config:job.Driver.j_config ())
  in
  let d =
    Dispatcher.create ~shards
      ~run:(fun ctx prefix ->
        let vm =
          Warm.acquire pools.(ctx.Dispatcher.shard) job.Driver.j_entry
            ~seed:job.Driver.j_seed
        in
        job.Driver.j_probe ~vm prefix)
      ()
  in
  let next () =
    match Dispatcher.next d with
    | Some { Dispatcher.r_outcome = Dispatcher.Done p; _ } -> p
    | Some { Dispatcher.r_outcome = Dispatcher.Failed msg; _ } -> failwith msg
    | _ -> assert false (* no deadline or cancel; every slot was submitted *)
  in
  Fun.protect
    ~finally:(fun () -> ignore (Dispatcher.drain d))
    (fun () ->
      k
        {
          Driver.pi_width = 2 * shards;
          pi_submit = (fun prefix -> ignore (Dispatcher.submit d prefix));
          pi_next = next;
        })
