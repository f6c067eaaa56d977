(** [dvrun serve]: jobs over a Unix-domain socket. Length-prefixed
    {!Protocol} frames; each connection submits a burst of jobs, sends
    [Finish], and receives every reply in submission order before the
    connection closes. Connections are handled one at a time; the shard
    pool persists across them. *)

type t

(** Bind the socket (replacing a stale socket; [Sys_error] naming the path
    when it holds any other file), spawn the shard pool, create [out_dir]
    if missing ([Sys_error] naming it, before the bind, when it exists and
    is not a directory). Recorded traces land in
    [out_dir]/WORKLOAD-SEQ.trace (server-assigned, collision-free). *)
val create :
  ?shards:int -> ?slice:int -> socket_path:string -> out_dir:string -> unit -> t

(** Accept loop. [max_conns] bounds how many connections to serve (for
    tests); [None] serves until the process dies. *)
val serve : ?max_conns:int -> t -> unit

(** Close the listening socket, remove the socket file, drain and join the
    shard pool. *)
val shutdown : t -> unit

val stats : t -> Stats.t

(** Client helper: connect, submit the batch, collect replies in order. *)
val client_submit :
  socket_path:string -> Protocol.request list -> Protocol.reply list
