(* One ratchet for the repo's measured claims.

     ratchet [--write] bench|wall|eval EXE

   Runs the domain's producer EXE, reads the JSON report it writes and
   checks it against that domain's lines of ratchet.baseline in the current
   directory, the repository root (the file's header explains lines and
   policies).  bench and wall read the same bench report: wall its
   wall-clock rows, bench every other row.  A
   baseline line without a fresh value fails, and so does a fresh value
   without a baseline line.  --write rewrites the domain's values from the
   fresh run, keeping each line's policy.  Every report lives only in the
   ratchet's scratch directory: none is committed.  Exit status: 0 pass,
   1 regression, 2 usage error or producer failure. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ratchet: " ^ s); exit 2) fmt

(* ---------- JSON: just enough to read the reports ---------- *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Atom of string (* number, true, false or null, as written *)

let parse_json s =
  let pos = ref 0 in
  let fail () = die "malformed JSON at byte %d" !pos in
  let rec peek () =
    match s.[!pos] with ' ' | '\t' | '\r' | '\n' -> incr pos; peek () | c -> c
  in
  let next () = let c = peek () in incr pos; c in
  let expect c = if next () <> c then fail () in
  (* An escape keeps the escaped character: keys and names never hold one. *)
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match s.[!pos] with
      | '"' -> incr pos; Buffer.contents b
      | '\\' -> Buffer.add_char b s.[!pos + 1]; pos := !pos + 2; go ()
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ()
  in
  let rec items close item acc =
    if acc = [] && peek () = close then (incr pos; [])
    else
      let acc = item () :: acc in
      match next () with
      | ',' -> items close item acc
      | c when c = close -> List.rev acc
      | _ -> fail ()
  in
  let rec value () =
    match peek () with
    | '{' ->
      incr pos;
      Obj (items '}' (fun () -> let k = string () in expect ':'; (k, value ())) [])
    | '[' -> incr pos; Arr (items ']' value [])
    | '"' -> Str (string ())
    | _ ->
      let start = !pos in
      while not (String.contains " \t\r\n,:]}" s.[!pos]) do incr pos done;
      if !pos = start then fail () else Atom (String.sub s start (!pos - start))
  in
  (* reading past the end raises Invalid_argument *)
  match value () with
  | v when String.trim (String.sub s !pos (String.length s - !pos)) = "" -> v
  | _ | (exception Invalid_argument _) -> fail ()

let find k = function Obj kv -> List.assoc_opt k kv | _ -> None
let member k j = match find k j with Some v -> v | None -> die "report lacks %S" k

let num k j =
  match member k j with
  | Atom a when float_of_string_opt a <> None -> a
  | _ -> die "report: %S is not a number" k

let str k j = match member k j with Str s -> s | _ -> die "report: %S is not a string" k
let arr k j = match member k j with Arr l -> l | _ -> die "report: %S is not an array" k
let read_file path = In_channel.with_open_bin path In_channel.input_all
let read_json path = parse_json (read_file path)

type row = { key : string; metric : string; value : string }

let row key metric value = { key; metric; value }

(* The policy --write gives a new metric. *)
let default_policy = function
  | "regret" | "spearman" -> "min"
  | "wall_seconds" -> "within 3"
  | "ratio" -> "band 0.25 4"
  | "compression" -> "band 10 inf"
  | _ -> "max"

(* wall: the exhibits' wall-clock rows; bench: every other row *)
let bench_rows domain report =
  let metrics =
    [ "optimizer_calls"; "optimizer_calls_raw"; "enumerate_calls"; "wall_seconds" ]
  in
  (* alloc_words only where the exhibit measured an exact count *)
  let exhibit e =
    let metrics = if find "alloc_words" e = None then metrics else metrics @ [ "alloc_words" ] in
    List.map (fun m -> row (str "name" e) m (num m e)) metrics
  in
  let rows = List.concat_map exhibit (arr "exhibits" report) in
  let raw name =
    List.find_opt (fun r -> r.key = name && r.metric = "optimizer_calls_raw") rows
    |> Option.map (fun r -> float_of_string r.value)
  in
  (* Compression must keep the 10k-statement run's raw-equivalent optimizer
     calls at least 10x below the uncompressed run's. *)
  let compression =
    match (raw "scale10k", raw "scale10k-raw") with
    | Some c, Some u ->
      [ row "scale10k" "compression" (Printf.sprintf "%.1f" (u /. c)) ]
    | _ -> []
  in
  List.filter (fun r -> (r.metric = "wall_seconds") = (domain = "wall")) (rows @ compression)

let eval_rows report =
  let entry e =
    let key = String.concat ":" [ str "case" e; num "frac" e; str "algorithm" e ] in
    [ row key "regret" (num "regret" e);
      row key "calls" (num "optimizer_calls" e);
      row key "ratio" (num "ratio" e) ]
  in
  List.concat_map
    (fun c ->
      row (str "case" c) "spearman" (num "spearman" c)
      :: List.concat_map entry (arr "entries" c))
    (arr "cases" report)

(* Runs [exe args] from [dir], its output to [log]; an exit status above 0
   is a failure. *)
let run ~dir ~log exe args =
  let cmd = Filename.quote_command exe args ~stdout:log ~stderr:log in
  let status = Sys.command ("cd " ^ Filename.quote dir ^ " && " ^ cmd) in
  if status > 0 then begin
    prerr_string (read_file log);
    die "%s failed (exit %d)" (Filename.basename exe) status
  end

let produce domain exe scratch =
  let log = Filename.concat scratch "producer.log" in
  let args, rows =
    match domain with
    | "bench" | "wall" ->
      ( [ "quick"; "scale10k"; "scale10k-raw"; "walk"; "shapes"; "executor"; "scan"; "upkeep";
          "whatif"; "pool"; "candidates"; "read"; "lint" ],
        bench_rows domain )
    | "eval" ->
      let perturb = Option.value (Sys.getenv_opt "XIA_EVAL_PERTURB") ~default:"1" in
      ([ "eval"; "--small"; "--perturb"; perturb; "--json"; "EVAL_advisor.json" ], eval_rows)
    | d -> die "unknown domain %S (bench, wall or eval)" d
  in
  run ~dir:scratch ~log exe args;
  (* the report is the one JSON file the producer wrote *)
  let json f = Filename.extension f = ".json" in
  match List.filter json (Array.to_list (Sys.readdir scratch)) with
  | [ f ] -> rows (read_json (Filename.concat scratch f))
  | fs -> die "%s wrote %d JSON reports, not 1" (Filename.basename exe) (List.length fs)

let baseline_file = "ratchet.baseline"

(* [Line (domain, row, policy)]; --write keeps [Text] (comments, blanks) verbatim. *)
type line = Text of string | Line of string * row * string

(* [Some reason] when the fresh [v] breaks [policy] against the recorded
   [b]; raises on a malformed policy. *)
let broken policy b v =
  let f = float_of_string in
  match String.split_on_char ' ' policy with
  | [ "max" ] -> if v > b then Some "rose" else None
  | [ "min" ] -> if v < b then Some "fell" else None
  | [ "within"; k ] -> if v > f k *. b then Some ("exceeds " ^ k ^ "x") else None
  | [ "band"; lo; hi ] ->
    let l = f lo and h = f hi in
    (* -1 is the eval report's "no measurable improvement" ratio *)
    if v = -1. || (l <= v && v <= h) then None
    else Some ("left [" ^ lo ^ ", " ^ hi ^ "]")
  | _ -> invalid_arg policy

let load_baseline () =
  let parse i text =
    match List.filter (( <> ) "") (String.split_on_char ' ' text) with
    | [] -> Text text
    | w :: _ when w.[0] = '#' -> Text text
    | domain :: key :: metric :: value :: policy -> (
      let policy = String.concat " " policy in
      match broken policy (float_of_string value) 0. with
      | exception _ -> die "%s:%d: bad value or policy" baseline_file (i + 1)
      | _ -> Line (domain, row key metric value, policy))
    | _ -> die "%s:%d: expected domain key metric value policy" baseline_file (i + 1)
  in
  if not (Sys.file_exists baseline_file) then []
  else
    List.mapi parse (String.split_on_char '\n' (String.trim (read_file baseline_file)))

let same a b = a.key = b.key && a.metric = b.metric

let in_baseline domain lines r =
  List.exists (function Line (d, b, _) -> d = domain && same b r | _ -> false) lines

let check domain lines fresh =
  let failures = ref 0 in
  let say tag r fmt =
    Printf.printf ("ratchet: %s%s %s %s " ^^ fmt ^^ "\n") tag domain r.key r.metric
  in
  let fail r fmt = incr failures; say "FAIL " r fmt in
  List.iter
    (function
      | Line (d, base, policy) when d = domain -> (
        match List.find_opt (same base) fresh with
        | None -> fail base "is in %s but not in the fresh run" baseline_file
        | Some r -> (
          let b = float_of_string base.value and v = float_of_string r.value in
          match broken policy b v with
          | Some why ->
            fail r "%s: %s vs baseline %s (%s)" why r.value base.value policy
          | None when v <> b && (policy = "max" || policy = "min") ->
            say "" r "improved: %s vs baseline %s; tighten with --write" r.value
              base.value
          | None -> ()))
      | _ -> ())
    lines;
  List.iter
    (fun r ->
      if not (in_baseline domain lines r) then
        fail r "= %s is not in %s; add it with --write" r.value baseline_file)
    fresh;
  if !failures > 0 then begin
    Printf.printf "ratchet: %s: %d check(s) failed; fix the regression, or re-baseline \
                   a deliberate change with --write\n" domain !failures;
    exit 1
  end;
  Printf.printf "ratchet: %s OK\n" domain

let write domain lines fresh =
  let refreshed =
    List.filter_map
      (function
        | Line (d, base, policy) when d = domain ->
          Option.map (fun r -> Line (d, r, policy)) (List.find_opt (same base) fresh)
        | other -> Some other)
      lines
  in
  let added =
    List.filter_map
      (fun r ->
        if in_baseline domain lines r then None
        else Some (Line (domain, r, default_policy r.metric)))
      fresh
  in
  Out_channel.with_open_bin baseline_file (fun oc ->
      List.iter
        (function
          | Text t -> Printf.fprintf oc "%s\n" t
          | Line (d, r, p) ->
            Printf.fprintf oc "%s %s %s %s %s\n" d r.key r.metric r.value p)
        (refreshed @ added));
  Printf.printf "ratchet: wrote %s (%s)\n" baseline_file domain

let () =
  let write_mode, domain, exe =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--write"; d; e ] -> (true, d, e)
    | [ d; e ] -> (false, d, e)
    | _ -> die "usage: ratchet [--write] bench|wall|eval EXE"
  in
  (* resolve before the producer runs from the scratch directory *)
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe
  in
  let lines = load_baseline () in
  let scratch = Filename.temp_dir "ratchet" "" in
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote scratch)));
  let fresh = produce domain exe scratch in
  if write_mode then write domain lines fresh else check domain lines fresh
