(* A small stdlib-only work pool over OCaml 5 domains.

   The advisor's what-if evaluation is embarrassingly parallel once the
   optimizer takes the virtual configuration as an explicit argument: every
   statement cost and every sub-configuration delta is a pure function of
   (catalog snapshot, statement, configuration).  This module provides the
   deterministic fan-out primitive used by [Benefit] and [Search]:

     Par.map ~domains f arr

   computes [Array.map f arr] with up to [domains] domains cooperating.  The
   result is positionally identical to the sequential map — worker scheduling
   only decides *who* computes each cell, never *what* goes into it — so
   callers get bit-for-bit the same benefits, configurations and orderings
   with any domain count.

   Design notes:

   - One process-global pool of [recommended_domain_count - 1] workers is
     spawned lazily on first use and joined via [at_exit].  Worker domains
     block on a condition variable between jobs, so an idle pool costs
     nothing.
   - A [map] publishes one shared batch (an atomic next-index cursor); the
     calling domain always participates, and up to [domains - 1] helper jobs
     are queued for the pool.  A helper that arrives after the batch is
     drained simply finds no work, so nested [map]s issued from inside a
     worker cannot deadlock: the inner caller can always finish the batch
     alone.
   - Exceptions from [f] are caught per item; after the batch completes, the
     exception raised for the *smallest* item index is re-raised — the same
     one a sequential [Array.map] would have surfaced. *)

module Obs = Xia_obs.Obs
module Trace = Xia_obs.Trace
module Metrics = Xia_obs.Metrics

type pool = {
  jobs : (unit -> unit) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let default_domains () = Domain.recommended_domain_count ()

(* Observability: batch/item counts ("par.batches", "par.items") and
   cumulative worker idle time ("par.idle_us"), looked up by name at each
   use.  The idle clock only runs while observability is enabled, so an idle
   pool still costs nothing when it is off. *)

let worker_loop pool () =
  let rec next () =
    Mutex.lock pool.lock;
    let job =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock pool.lock)
        (fun () ->
          let rec await () =
            if pool.stop then None
            else
              match Queue.take_opt pool.jobs with
              | Some job -> Some job
              | None ->
                  if Obs.on () then begin
                    let t0 = Obs.now_s () in
                    Condition.wait pool.nonempty pool.lock;
                    Metrics.add (Metrics.counter "par.idle_us")
                      (int_of_float ((Obs.now_s () -. t0) *. 1e6))
                  end
                  else Condition.wait pool.nonempty pool.lock;
                  await ()
          in
          await ())
    in
    match job with
    | None -> ()
    | Some job ->
        (try job () with _ -> ());
        next ()
  in
  next ()

let the_pool : pool option Atomic.t = Atomic.make None

let shutdown_pool pool =
  Mutex.lock pool.lock;
  pool.stop <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- []

(* Spawn the global pool on first use (main domain only in practice, but an
   atomic CAS keeps initialization safe from anywhere). *)
let rec get_pool () =
  match Atomic.get the_pool with
  | Some pool -> pool
  | None ->
      let pool =
        {
          jobs = Queue.create ();
          lock = Mutex.create ();
          nonempty = Condition.create ();
          stop = false;
          workers = [];
        }
      in
      if Atomic.compare_and_set the_pool None (Some pool) then begin
        let n = max 0 (default_domains () - 1) in
        pool.workers <- List.init n (fun _ -> Domain.spawn (worker_loop pool));
        at_exit (fun () -> shutdown_pool pool);
        pool
      end
      else get_pool ()

let submit pool job =
  Mutex.lock pool.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock pool.lock)
    (fun () ->
      Queue.push job pool.jobs;
      Condition.signal pool.nonempty)

let map ~domains f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if domains <= 1 || n <= 1 then Array.map f arr
  else begin
    if Obs.on () then Metrics.incr (Metrics.counter "par.batches");
    Trace.with_span "par.batch"
      ~args:(fun () ->
        [ ("items", string_of_int n); ("domains", string_of_int domains) ])
    @@ fun () ->
    let pool = get_pool () in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* First-by-index exception, mirroring the sequential failure. *)
    let error : (int * exn) option Atomic.t = Atomic.make None in
    let rec record_error i e =
      match Atomic.get error with
      | Some (j, _) when j <= i -> ()
      | cur -> if not (Atomic.compare_and_set error cur (Some (i, e))) then record_error i e
    in
    let fin_lock = Mutex.create () in
    let fin_cond = Condition.create () in
    let completed = ref 0 in
    let work () =
      let claimed = ref 0 in
      Trace.with_span "par.work"
        ~args:(fun () -> [ ("claimed", string_of_int !claimed) ])
      @@ fun () ->
      let rec claim mine =
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then mine
        else begin
          (try results.(i) <- Some (f arr.(i)) with e -> record_error i e);
          claim (mine + 1)
        end
      in
      let mine = claim 0 in
      claimed := mine;
      if mine > 0 then begin
        if Obs.on () then Metrics.add (Metrics.counter "par.items") mine;
        Mutex.lock fin_lock;
        completed := !completed + mine;
        if !completed >= n then Condition.broadcast fin_cond;
        Mutex.unlock fin_lock
      end
    in
    let helpers = min (domains - 1) (n - 1) in
    (* Helper jobs reach the batch through this slot, not by capturing [work]
       directly.  When the batch completes the slot is cleared, so jobs still
       sitting unclaimed in the pool queue degrade to no-ops that hold no
       reference to [arr]/[results] — an idle pool never keeps a finished
       batch's data alive. *)
    let slot : (unit -> unit) option Atomic.t = Atomic.make (Some work) in
    let helper_job () =
      match Atomic.get slot with Some w -> w () | None -> ()
    in
    if pool.workers <> [] then
      for _ = 1 to helpers do
        submit pool helper_job
      done;
    work ();
    Mutex.lock fin_lock;
    while !completed < n do
      Condition.wait fin_cond fin_lock
    done;
    Mutex.unlock fin_lock;
    Atomic.set slot None;
    (match Atomic.get error with Some (_, e) -> raise e | None -> ());
    (* lint: every slot was filled — the completion barrier above waits for all n *)
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list ~domains f l = Array.to_list (map ~domains f (Array.of_list l))

(* The sanctioned deterministic parallel float reduction (what the N002
   lint points at): per-item results come from [map] — positionally stable
   by construction — and the combine is a fixed left-to-right sequential
   fold on the calling domain, so the non-associativity of float addition
   never meets scheduling order. *)
let sum_list ~domains f l =
  Array.fold_left ( +. ) 0.0 (map ~domains f (Array.of_list l))
