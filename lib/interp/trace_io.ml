(* Plain-text serialization of execution traces: a versioned header,
   then one instance per line:

     idx sid occ parent kind value | use cell:def:value ... | def cell:value ...

   The format is line-oriented and whitespace-separated so traces can be
   grepped, diffed and post-processed outside the process that produced
   them (the CLI's --dump-trace), and round-trips exactly.  Parsing is
   two-phase — each line is decoded into a record before anything is
   committed to the trace — so a malformed line never leaves a
   half-reserved instance behind, which is what makes the salvage mode
   (recover the valid prefix of a truncated dump) sound. *)

let version = 1

let header_prefix = "#exom-trace"

let header = Printf.sprintf "%s v%d" header_prefix version

type error = { line : int; msg : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.msg

(* Internal, per-token parse failure; carries only the message, the
   line number is attached by the driver. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let string_of_value = function
  | Value.Vint n -> "i" ^ string_of_int n
  | Value.Vbool b -> if b then "bt" else "bf"
  | Value.Varr id -> "a" ^ string_of_int id
  | Value.Vunit -> "u"

let int_of_token what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> bad "bad %s %S" what s

let value_of_string s =
  let num off = int_of_token "value" (String.sub s off (String.length s - off)) in
  match s with
  | "u" -> Value.Vunit
  | "bt" -> Value.Vbool true
  | "bf" -> Value.Vbool false
  | _ when s <> "" && s.[0] = 'i' -> Value.Vint (num 1)
  | _ when s <> "" && s.[0] = 'a' -> Value.Varr (num 1)
  | _ -> bad "bad value %S" s

let string_of_cell = function
  | Cell.Global x -> "G." ^ x
  | Cell.Local (fid, x) -> Printf.sprintf "L.%d.%s" fid x
  | Cell.Elem (arr, i) -> Printf.sprintf "E.%d.%d" arr i
  | Cell.Ret fid -> Printf.sprintf "R.%d" fid

let cell_of_string s =
  match String.split_on_char '.' s with
  | "G" :: rest -> Cell.Global (String.concat "." rest)
  | "L" :: fid :: rest ->
    Cell.Local (int_of_token "frame id" fid, String.concat "." rest)
  | [ "E"; arr; i ] ->
    Cell.Elem (int_of_token "array id" arr, int_of_token "index" i)
  | [ "R"; fid ] -> Cell.Ret (int_of_token "frame id" fid)
  | _ -> bad "bad cell %S" s

let string_of_kind = function
  | Trace.Kassign -> "assign"
  | Trace.Kpredicate true -> "pred+"
  | Trace.Kpredicate false -> "pred-"
  | Trace.Koutput -> "output"
  | Trace.Kcall -> "call"
  | Trace.Kreturn -> "return"
  | Trace.Kother -> "other"

let kind_of_string = function
  | "assign" -> Trace.Kassign
  | "pred+" -> Trace.Kpredicate true
  | "pred-" -> Trace.Kpredicate false
  | "output" -> Trace.Koutput
  | "call" -> Trace.Kcall
  | "return" -> Trace.Kreturn
  | "other" -> Trace.Kother
  | s -> bad "bad kind %S" s

let write_instance buf (inst : Trace.instance) =
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d %d %s %s |" inst.Trace.idx inst.Trace.sid
       inst.Trace.occ inst.Trace.parent
       (string_of_kind inst.Trace.kind)
       (string_of_value inst.Trace.value));
  List.iter
    (fun (c, d, v) ->
      Buffer.add_string buf
        (Printf.sprintf " %s:%d:%s" (string_of_cell c) d (string_of_value v)))
    inst.Trace.uses;
  Buffer.add_string buf " |";
  List.iter
    (fun (c, v) ->
      Buffer.add_string buf
        (Printf.sprintf " %s:%s" (string_of_cell c) (string_of_value v)))
    inst.Trace.defs;
  Buffer.add_char buf '\n'

let to_string trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Trace.iter (write_instance buf) trace;
  Buffer.contents buf

(* [cell:def:value] — cells may contain dots but not colons. *)
let parse_use s =
  match String.split_on_char ':' s with
  | [ c; d; v ] -> (cell_of_string c, int_of_token "definition index" d,
                    value_of_string v)
  | _ -> bad "bad use %S" s

let parse_def s =
  match String.split_on_char ':' s with
  | [ c; v ] -> (cell_of_string c, value_of_string v)
  | _ -> bad "bad def %S" s

(* A fully decoded line, not yet committed to any trace. *)
type parsed = {
  p_idx : int;
  p_sid : int;
  p_occ : int;
  p_parent : int;
  p_kind : Trace.ikind;
  p_value : Value.t;
  p_uses : (Cell.t * int * Value.t) list;
  p_defs : (Cell.t * Value.t) list;
}

let parse_line line =
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  match words with
  | idx :: sid :: occ :: parent :: kind :: value :: "|" :: rest ->
    let rec split_uses acc = function
      | "|" :: defs -> (List.rev acc, defs)
      | u :: more -> split_uses (parse_use u :: acc) more
      | [] -> bad "missing defs separator"
    in
    let uses, defs = split_uses [] rest in
    {
      p_idx = int_of_token "instance index" idx;
      p_sid = int_of_token "sid" sid;
      p_occ = int_of_token "occurrence" occ;
      p_parent = int_of_token "parent" parent;
      p_kind = kind_of_string kind;
      p_value = value_of_string value;
      p_uses = uses;
      p_defs = List.map parse_def defs;
    }
  | _ -> bad "malformed instance line %S" line

let commit trace p =
  let expected = Trace.length trace in
  if p.p_idx <> expected then
    bad "non-contiguous instance index (expected %d, got %d)" expected p.p_idx;
  let idx =
    Trace.reserve trace ~sid:p.p_sid ~occ:p.p_occ ~parent:p.p_parent
  in
  Trace.fill trace idx ~kind:p.p_kind ~uses:p.p_uses ~defs:p.p_defs
    ~value:p.p_value

(* The header is optional (pre-versioning dumps have none), but a
   present one must carry a version we understand. *)
let check_header line =
  match String.split_on_char ' ' (String.trim line) with
  | prefix :: v :: _ when prefix = header_prefix ->
    if v <> Printf.sprintf "v%d" version then
      bad "unsupported trace format %s (this reader understands v%d)" v version
  | _ -> bad "malformed trace header %S" line

(* Shared driver: commit lines until the end or the first malformed
   line, reporting how the parse ended. *)
let parse_all s =
  let trace = Trace.create () in
  let lines = String.split_on_char '\n' s in
  let rec go lineno = function
    | [] -> (trace, None)
    | line :: rest -> (
      let line' = String.trim line in
      match
        if line' = "" then ()
        else if line'.[0] = '#' then begin
          if
            String.length line' >= String.length header_prefix
            && String.sub line' 0 (String.length header_prefix) = header_prefix
          then check_header line'
          (* other #-lines are comments *)
        end
        else commit trace (parse_line line')
      with
      | () -> go (lineno + 1) rest
      | exception Bad msg -> (trace, Some { line = lineno; msg }))
  in
  let result = go 1 lines in
  Trace.recount trace;
  result

let of_string_result s =
  match parse_all s with
  | trace, None -> Ok trace
  | _, Some e -> Error e

let of_string s =
  match of_string_result s with
  | Ok trace -> trace
  | Error e -> failwith ("Trace_io: " ^ error_to_string e)

let salvage_of_string s = parse_all s

let save path trace =
  Exom_util.Vfs.get_ok
    (Exom_util.Vfs.write_file_atomic ~tmp:(path ^ ".tmp") path
       (to_string trace))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path = of_string (read_file path)

let load_result path = of_string_result (read_file path)

let salvage_load path = salvage_of_string (read_file path)
