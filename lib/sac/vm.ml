(* Bytecode VM for mini-SaC.

   Two execution levels.  Function bodies run on a {!Value.t} stack
   machine ([run_code]) whose semantics mirror {!Eval} instruction for
   instruction — same coercions, same error strings, same statistics.
   With-loop opcodes dispatch to loop drivers that, whenever the body
   can be specialised, bottom out in [exec_k]: a register machine over
   unboxed [float array]/[int array] banks compiled at run time from
   the body expression once the capture kinds and shapes are known
   (the compiled kernel is cached per descriptor, keyed on those
   kinds).  Bodies the specialiser cannot handle — nested with-loops,
   whole-array operations, vector arithmetic — fall back to the
   descriptor's generic stack-code body, so every program runs and the
   kernel path is a pure strength reduction: results are bitwise
   identical either way. *)

open Ast
module B = Bytecode

let err msg = raise (Eval.Error msg)

(* ---------------- index-space helpers (as in {!Eval}) ------------- *)

let frame_of lb ub =
  let l = Value.to_ivec lb and u = Value.to_ivec ub in
  if Array.length l <> Array.length u then
    err "with-loop bounds have different lengths";
  (l, u)

let frame_size l u =
  let n = ref 1 in
  Array.iteri (fun i li -> n := !n * max 0 (u.(i) - li)) l;
  !n

let index_of_flat_into l u flat idx =
  let rem = ref flat in
  for d = Array.length l - 1 downto 0 do
    let ext = u.(d) - l.(d) in
    idx.(d) <- l.(d) + (!rem mod ext);
    rem := !rem / ext
  done

let offset_of idx strides =
  let o = ref 0 in
  for d = 0 to Array.length idx - 1 do
    o := !o + (idx.(d) * strides.(d))
  done;
  !o

(* Growable buffers (OCaml 5.1 has no Dynarray). *)
module Buf = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let cap = max 8 (2 * Array.length t.a) in
      let a = Array.make cap x in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1;
    t.n - 1

  let get t i = t.a.(i)
  let set t i x = t.a.(i) <- x
  let to_array t = Array.sub t.a 0 t.n
end

(* ---------------- the kernel register machine -------------------- *)

(* Capture banks: the enclosing-frame values a kernel reads, unboxed
   by kind.  Scalars are copied in before every with-loop execution;
   arrays and int vectors are aliased (they are immutable). *)
type banks = {
  fcap : float array;
  icap : int array;               (* ints and booleans (0/1) *)
  acap : float array array;       (* double-array payloads *)
  ivcap : int array array;
}

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

(* Register code: [d]/[a]/[b] index the per-lane float ([fr]) or int
   ([ir]) register files; [idx] is the current index vector.  Jump
   targets are absolute.  Comparisons follow {!Builtins.arith}: both
   operands go through float, min/max are selects, int division and
   modulo raise [Division_by_zero]. *)
type kinstr =
  | KFimm of int * float
  | KIimm of int * int
  | KFcap of int * int            (* fr.(d) <- fcap.(k) *)
  | KIcap of int * int            (* ir.(d) <- icap.(k) *)
  | KIv of int * int              (* ir.(d) <- idx.(k) *)
  | KIvD of int * int * int       (* ir.(d) <- idx.(ir.(r)); rank check *)
  | KFadd of int * int * int
  | KFsub of int * int * int
  | KFmul of int * int * int
  | KFdiv of int * int * int
  | KFrem of int * int * int
  | KIadd of int * int * int
  | KIsub of int * int * int
  | KImul of int * int * int
  | KIdiv of int * int * int
  | KImod of int * int * int
  | KFneg of int * int
  | KIneg of int * int
  | KFabs of int * int
  | KIabs of int * int
  | KSqrt of int * int
  | KExp of int * int
  | KLog of int * int
  | KPow of int * int * int
  | KFmin of int * int * int      (* if a <= b then a else b *)
  | KFmax of int * int * int      (* if a >= b then a else b *)
  | KImin of int * int * int      (* int select on the float compare *)
  | KImax of int * int * int
  | KI2F of int * int             (* fr.(d) <- float ir.(a) *)
  | KFcmp of cmp * int * int * int
  | KIcmp of cmp * int * int * int
  | KBnot of int * int
  | KFsel of int * int * int * int
      (* fr.(d) <- if ir.(c) <> 0 then fr.(a) else fr.(b) *)
  | KIsel of int * int * int * int
  | KFmov of int * int
  | KImov of int * int
  | KJmp of int
  | KJz of int * int              (* branch when ir.(r) = 0 *)
  | KJnz of int * int
  | KFmadd of int * int * int * int
      (* fr.(d) <- fr.(a) *. fr.(b) +. fr.(c) — two roundings, exactly
         the separate mul and add it replaces *)
  | KFaddm of int * int * int * int   (* fr.(d) <- c +. (a *. b) *)
  | KFmsub of int * int * int * int   (* fr.(d) <- (a *. b) -. c *)
  | KFsubm of int * int * int * int   (* fr.(d) <- c -. (a *. b) *)
  | KLoadC of int * int * int     (* fr.(d) <- acap.(ar).(off) *)
  | KLoad1 of int * int * int * int * int
      (* dst, arr, const base, index reg, extent — stride-1 dim *)
  | KLoad2 of int * int * int * int * int * int * int * int * int
      (* dst, arr, base, r0, ext0, stride0, r1, ext1, stride1 *)
  | KLoad of int * int * int * (int * int * int) array
      (* dst, arr, const base, dynamic dims (reg, extent, stride) *)
  | KLoadIvC of int * int * int   (* ir.(d) <- ivcap.(v).(pos) *)
  | KLoadIv of int * int * int * int
      (* ir.(d) <- ivcap.(v).(ir.(r)); bounds-checked against len *)

type kernel = {
  kpre : kinstr array;
      (* invariant prefix: runs once per execution per lane *)
  kcol : kinstr array;
      (* column-invariant code: depends only on the innermost index
         dimension.  A sequential walk runs it once per column and
         replays the saved live-out registers on later rows. *)
  kcode : kinstr array;           (* per-element code *)
  knf : int;
  kni : int;
  kout : int;                     (* float register holding the element *)
  klive_f : int array;            (* col-written float regs read later *)
  klive_i : int array;            (* col-written int regs read later *)
  kguards : kguard array option;
      (* When [Some gs]: every array load in [kcol]/[kcode] indexes
         within [0, ext) provided every guard holds for the actual
         bounds (affine indices constrain the iteration range;
         min/max-clamped indices constrain the fill-constant clamp
         registers).  An execution whose bounds and prefix registers
         satisfy every guard can run the unchecked thread variants;
         the checked and unchecked variants are indistinguishable on
         such executions. *)
}

(* A guard is a disjunction of conjunctions of primitive bounds: some
   alternative's bounds must all hold.  [Glo] proves a load index >= 0,
   [Ghi] proves it < ext. *)
and kguard =
  | Glo of gbnd list list
  | Ghi of int * gbnd list list

and gbnd =
  | GC of int                     (* constant *)
  | GR of int * int               (* prefix register value + offset *)
  | GIv of int * int              (* loop index dimension + offset:
                                     evaluated at [l] for lower bounds
                                     and at [u - 1] for upper bounds *)

let fcmp c (a : float) b =
  match c with
  | Ceq -> a = b
  | Cne -> a <> b
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b

(* Threaded execution: each instruction is compiled — once per kernel
   block, lane and capture-shape entry — into a closure that performs
   its operation and tail-calls its successor, so running a block costs
   one indirect call per instruction with the operand registers baked
   into each closure's environment: no fetch, decode or program-counter
   maintenance.  The register files and index vector are captured
   directly (their identity is stable for the life of a lane); captured
   scalar banks ([fcap]/[icap]) likewise; array banks are read through
   [bk] at call time because [fill_banks] repoints their slots at every
   with-loop execution.  Jump closures look their target up in [t] when
   they fire, so both forward and backward targets resolve to the final
   closures. *)
let khalt () = ()

let build_thread ?(unchecked = false) (code : kinstr array)
    (fr : float array) (ir : int array) (idx : int array) (bk : banks) :
    unit -> unit =
  let n = Array.length code in
  if n = 0 then khalt
  else begin
    let t = Array.make (n + 1) khalt in
    for i = n - 1 downto 0 do
      let next = Array.unsafe_get t (i + 1) in
      let step =
        match code.(i) with
        | KFimm (d, x) ->
          fun () ->
            Array.unsafe_set fr d x;
            next ()
        | KIimm (d, x) ->
          fun () ->
            Array.unsafe_set ir d x;
            next ()
        | KFcap (d, k) ->
          fun () ->
            Array.unsafe_set fr d (Array.unsafe_get bk.fcap k);
            next ()
        | KIcap (d, k) ->
          fun () ->
            Array.unsafe_set ir d (Array.unsafe_get bk.icap k);
            next ()
        | KIv (d, k) ->
          fun () ->
            Array.unsafe_set ir d (Array.unsafe_get idx k);
            next ()
        | KIvD (d, r, rank) ->
          fun () ->
            let i = Array.unsafe_get ir r in
            if i < 0 || i >= rank then err "index out of bounds";
            Array.unsafe_set ir d (Array.unsafe_get idx i);
            next ()
        | KFadd (d, a, b) ->
          fun () ->
            Array.unsafe_set fr d
              (Array.unsafe_get fr a +. Array.unsafe_get fr b);
            next ()
        | KFsub (d, a, b) ->
          fun () ->
            Array.unsafe_set fr d
              (Array.unsafe_get fr a -. Array.unsafe_get fr b);
            next ()
        | KFmul (d, a, b) ->
          fun () ->
            Array.unsafe_set fr d
              (Array.unsafe_get fr a *. Array.unsafe_get fr b);
            next ()
        | KFdiv (d, a, b) ->
          fun () ->
            Array.unsafe_set fr d
              (Array.unsafe_get fr a /. Array.unsafe_get fr b);
            next ()
        | KFrem (d, a, b) ->
          fun () ->
            Array.unsafe_set fr d
              (Float.rem (Array.unsafe_get fr a) (Array.unsafe_get fr b));
            next ()
        | KFmadd (d, a, b, c) ->
          fun () ->
            Array.unsafe_set fr d
              ((Array.unsafe_get fr a *. Array.unsafe_get fr b)
               +. Array.unsafe_get fr c);
            next ()
        | KFaddm (d, c, a, b) ->
          fun () ->
            Array.unsafe_set fr d
              (Array.unsafe_get fr c
               +. (Array.unsafe_get fr a *. Array.unsafe_get fr b));
            next ()
        | KFmsub (d, a, b, c) ->
          fun () ->
            Array.unsafe_set fr d
              ((Array.unsafe_get fr a *. Array.unsafe_get fr b)
               -. Array.unsafe_get fr c);
            next ()
        | KFsubm (d, c, a, b) ->
          fun () ->
            Array.unsafe_set fr d
              (Array.unsafe_get fr c
               -. (Array.unsafe_get fr a *. Array.unsafe_get fr b));
            next ()
        | KIadd (d, a, b) ->
          fun () ->
            Array.unsafe_set ir d
              (Array.unsafe_get ir a + Array.unsafe_get ir b);
            next ()
        | KIsub (d, a, b) ->
          fun () ->
            Array.unsafe_set ir d
              (Array.unsafe_get ir a - Array.unsafe_get ir b);
            next ()
        | KImul (d, a, b) ->
          fun () ->
            Array.unsafe_set ir d
              (Array.unsafe_get ir a * Array.unsafe_get ir b);
            next ()
        | KIdiv (d, a, b) ->
          fun () ->
            let y = Array.unsafe_get ir b in
            if y = 0 then raise Division_by_zero;
            Array.unsafe_set ir d (Array.unsafe_get ir a / y);
            next ()
        | KImod (d, a, b) ->
          fun () ->
            let y = Array.unsafe_get ir b in
            if y = 0 then raise Division_by_zero;
            Array.unsafe_set ir d (Array.unsafe_get ir a mod y);
            next ()
        | KFneg (d, a) ->
          fun () ->
            Array.unsafe_set fr d (-.(Array.unsafe_get fr a));
            next ()
        | KIneg (d, a) ->
          fun () ->
            Array.unsafe_set ir d (-(Array.unsafe_get ir a));
            next ()
        | KFabs (d, a) ->
          fun () ->
            Array.unsafe_set fr d (Float.abs (Array.unsafe_get fr a));
            next ()
        | KIabs (d, a) ->
          fun () ->
            Array.unsafe_set ir d (abs (Array.unsafe_get ir a));
            next ()
        | KSqrt (d, a) ->
          fun () ->
            Array.unsafe_set fr d (Float.sqrt (Array.unsafe_get fr a));
            next ()
        | KExp (d, a) ->
          fun () ->
            Array.unsafe_set fr d (Float.exp (Array.unsafe_get fr a));
            next ()
        | KLog (d, a) ->
          fun () ->
            Array.unsafe_set fr d (Float.log (Array.unsafe_get fr a));
            next ()
        | KPow (d, a, b) ->
          fun () ->
            Array.unsafe_set fr d
              (Array.unsafe_get fr a ** Array.unsafe_get fr b);
            next ()
        | KFmin (d, a, b) ->
          fun () ->
            let x = Array.unsafe_get fr a and y = Array.unsafe_get fr b in
            Array.unsafe_set fr d (if x <= y then x else y);
            next ()
        | KFmax (d, a, b) ->
          fun () ->
            let x = Array.unsafe_get fr a and y = Array.unsafe_get fr b in
            Array.unsafe_set fr d (if x >= y then x else y);
            next ()
        | KImin (d, a, b) ->
          fun () ->
            let x = Array.unsafe_get ir a and y = Array.unsafe_get ir b in
            Array.unsafe_set ir d
              (if float_of_int x <= float_of_int y then x else y);
            next ()
        | KImax (d, a, b) ->
          fun () ->
            let x = Array.unsafe_get ir a and y = Array.unsafe_get ir b in
            Array.unsafe_set ir d
              (if float_of_int x >= float_of_int y then x else y);
            next ()
        | KI2F (d, a) ->
          fun () ->
            Array.unsafe_set fr d (float_of_int (Array.unsafe_get ir a));
            next ()
        | KFcmp (c, d, a, b) -> (
          match c with
          | Ceq ->
            fun () ->
              Array.unsafe_set ir d
                (if Array.unsafe_get fr a = Array.unsafe_get fr b then 1
                 else 0);
              next ()
          | Cne ->
            fun () ->
              Array.unsafe_set ir d
                (if Array.unsafe_get fr a <> Array.unsafe_get fr b then 1
                 else 0);
              next ()
          | Clt ->
            fun () ->
              Array.unsafe_set ir d
                (if Array.unsafe_get fr a < Array.unsafe_get fr b then 1
                 else 0);
              next ()
          | Cle ->
            fun () ->
              Array.unsafe_set ir d
                (if Array.unsafe_get fr a <= Array.unsafe_get fr b then 1
                 else 0);
              next ()
          | Cgt ->
            fun () ->
              Array.unsafe_set ir d
                (if Array.unsafe_get fr a > Array.unsafe_get fr b then 1
                 else 0);
              next ()
          | Cge ->
            fun () ->
              Array.unsafe_set ir d
                (if Array.unsafe_get fr a >= Array.unsafe_get fr b then 1
                 else 0);
              next ())
        | KIcmp (c, d, a, b) -> (
          match c with
          | Ceq ->
            fun () ->
              Array.unsafe_set ir d
                (if
                   float_of_int (Array.unsafe_get ir a)
                   = float_of_int (Array.unsafe_get ir b)
                 then 1
                 else 0);
              next ()
          | Cne ->
            fun () ->
              Array.unsafe_set ir d
                (if
                   float_of_int (Array.unsafe_get ir a)
                   <> float_of_int (Array.unsafe_get ir b)
                 then 1
                 else 0);
              next ()
          | Clt ->
            fun () ->
              Array.unsafe_set ir d
                (if
                   float_of_int (Array.unsafe_get ir a)
                   < float_of_int (Array.unsafe_get ir b)
                 then 1
                 else 0);
              next ()
          | Cle ->
            fun () ->
              Array.unsafe_set ir d
                (if
                   float_of_int (Array.unsafe_get ir a)
                   <= float_of_int (Array.unsafe_get ir b)
                 then 1
                 else 0);
              next ()
          | Cgt ->
            fun () ->
              Array.unsafe_set ir d
                (if
                   float_of_int (Array.unsafe_get ir a)
                   > float_of_int (Array.unsafe_get ir b)
                 then 1
                 else 0);
              next ()
          | Cge ->
            fun () ->
              Array.unsafe_set ir d
                (if
                   float_of_int (Array.unsafe_get ir a)
                   >= float_of_int (Array.unsafe_get ir b)
                 then 1
                 else 0);
              next ())
        | KBnot (d, a) ->
          fun () ->
            Array.unsafe_set ir d (1 - Array.unsafe_get ir a);
            next ()
        | KFsel (d, c, a, b) ->
          fun () ->
            Array.unsafe_set fr d
              (if Array.unsafe_get ir c <> 0 then Array.unsafe_get fr a
               else Array.unsafe_get fr b);
            next ()
        | KIsel (d, c, a, b) ->
          fun () ->
            Array.unsafe_set ir d
              (if Array.unsafe_get ir c <> 0 then Array.unsafe_get ir a
               else Array.unsafe_get ir b);
            next ()
        | KFmov (d, a) ->
          fun () ->
            Array.unsafe_set fr d (Array.unsafe_get fr a);
            next ()
        | KImov (d, a) ->
          fun () ->
            Array.unsafe_set ir d (Array.unsafe_get ir a);
            next ()
        | KJmp tg -> fun () -> (Array.unsafe_get t tg) ()
        | KJz (r, tg) ->
          fun () ->
            if Array.unsafe_get ir r = 0 then (Array.unsafe_get t tg) ()
            else next ()
        | KJnz (r, tg) ->
          fun () ->
            if Array.unsafe_get ir r <> 0 then (Array.unsafe_get t tg) ()
            else next ()
        | KLoadC (d, ar, off) ->
          fun () ->
            Array.unsafe_set fr d
              (Array.unsafe_get (Array.unsafe_get bk.acap ar) off);
            next ()
        | KLoad1 (d, ar, base, r, ext) ->
          if unchecked then
            fun () ->
              Array.unsafe_set fr d
                (Array.unsafe_get (Array.unsafe_get bk.acap ar)
                   (base + Array.unsafe_get ir r));
              next ()
          else
            fun () ->
              let i = Array.unsafe_get ir r in
              if i < 0 || i >= ext then err "index out of bounds";
              Array.unsafe_set fr d
                (Array.unsafe_get (Array.unsafe_get bk.acap ar) (base + i));
              next ()
        | KLoad2 (d, ar, base, r0, e0, s0, r1, e1, s1) ->
          if unchecked then
            fun () ->
              Array.unsafe_set fr d
                (Array.unsafe_get
                   (Array.unsafe_get bk.acap ar)
                   (base
                   + (Array.unsafe_get ir r0 * s0)
                   + (Array.unsafe_get ir r1 * s1)));
              next ()
          else
            fun () ->
              let i0 = Array.unsafe_get ir r0 in
              if i0 < 0 || i0 >= e0 then err "index out of bounds";
              let i1 = Array.unsafe_get ir r1 in
              if i1 < 0 || i1 >= e1 then err "index out of bounds";
              Array.unsafe_set fr d
                (Array.unsafe_get
                   (Array.unsafe_get bk.acap ar)
                   (base + (i0 * s0) + (i1 * s1)));
              next ()
        | KLoad (d, ar, base, dyn) ->
          (* Plain [for] loops: an [Array.iter] closure over a [ref]
             would allocate both on every element. *)
          let nd = Array.length dyn in
          if unchecked then
            fun () ->
              let off = ref base in
              for p = 0 to nd - 1 do
                let r, _, strd = Array.unsafe_get dyn p in
                off := !off + (Array.unsafe_get ir r * strd)
              done;
              Array.unsafe_set fr d
                (Array.unsafe_get (Array.unsafe_get bk.acap ar) !off);
              next ()
          else
            fun () ->
              let off = ref base in
              for p = 0 to nd - 1 do
                let r, ext, strd = Array.unsafe_get dyn p in
                let i = Array.unsafe_get ir r in
                if i < 0 || i >= ext then err "index out of bounds";
                off := !off + (i * strd)
              done;
              Array.unsafe_set fr d
                (Array.unsafe_get (Array.unsafe_get bk.acap ar) !off);
              next ()
        | KLoadIvC (d, v, pos) ->
          fun () ->
            Array.unsafe_set ir d
              (Array.unsafe_get (Array.unsafe_get bk.ivcap v) pos);
            next ()
        | KLoadIv (d, v, r, len) ->
          fun () ->
            let i = Array.unsafe_get ir r in
            if i < 0 || i >= len then err "index out of bounds";
            Array.unsafe_set ir d
              (Array.unsafe_get (Array.unsafe_get bk.ivcap v) i);
            next ()
      in
      t.(i) <- step
    done;
    t.(0)
  end

(* ---------------- run-time kernel specialisation ------------------ *)

(* Raised (and caught) when the body cannot be specialised: nested
   with-loops, whole-array or int-vector arithmetic, user-function
   calls, dynamically-typed conditionals.  The generic stack-code body
   then runs instead and reproduces {!Eval}'s behaviour exactly,
   including error messages and statistics. *)
exception Bail

(* What a capture looks like at specialisation time: its bank slot,
   plus the shape information the compiler bakes into load offsets. *)
type cinfo =
  | CF of int
  | CI of int
  | CB of int
  | CArr of int * int array       (* bank slot, shape *)
  | CIv of int * int              (* bank slot, length *)

(* Abstract locations during kernel compilation. *)
type kreg =
  | RF of int                     (* float register *)
  | RI of int                     (* int register *)
  | RB of int                     (* int register holding 0/1 *)
  | RIc of int                    (* compile-time int constant *)
  | RIVc of int array             (* compile-time int vector *)
  | RIVcap of int * int           (* captured int vector: bank, length *)
  | RIvar                         (* the with-loop index vector *)
  | RArr of int * int array       (* captured array: bank, shape *)

(* Each register carries a dependence mask: bit [d] set when its value
   may vary with index dimension [d] (-1 = conservatively everything).
   The mask decides the register's home: 0 hoists to the invariant
   prefix; a mask inside [colmask] (the innermost dimension, for rank
   >= 2) goes to the column-invariant block; anything else is
   per-element code.  Registers defined inside a conditional arm are
   pinned to per-element code and recorded as depending on
   everything. *)
type kc = {
  kprog : Ast.program;
  caps : (string, cinfo) Hashtbl.t;
  kivar : string;
  krank : int;
  colmask : int;                  (* innermost-dim bit, 0 if rank < 2 *)
  pre : kinstr Buf.t;             (* loop-invariant prefix *)
  col : kinstr Buf.t;             (* column-invariant code *)
  main : kinstr Buf.t;            (* per-element code *)
  mutable nf : int;
  mutable ni : int;
  fdep : int Buf.t;               (* per float register: dependence mask *)
  idep : int Buf.t;
  cse : (Ast.expr, kreg) Hashtbl.t;
  mutable trail : Ast.expr list;  (* cse keys, for branch rollback *)
  mutable bdepth : int;           (* > 0 inside a conditional arm *)
  mutable spec : bool;            (* speculating: no raising instrs *)
}

(* Raised when speculative arm compilation would emit an instruction
   that can raise at run time; the conditional then falls back to
   branches.  Only instructions that can never fault (float arithmetic,
   moves, constant-offset loads) may run speculatively. *)
exception SpecBail

let spec_ok = function
  | KIdiv _ | KImod _ | KIvD _ | KLoad _ | KLoad1 _ | KLoad2 _ | KLoadIv _ ->
    false
  | _ -> true

let fdep kc r = Buf.get kc.fdep r
let idep kc r = Buf.get kc.idep r

(* All-dimensions mask, for dynamic index-vector reads. *)
let alldims kc = (1 lsl kc.krank) - 1

(* Allocate a register and emit the instruction writing it into the
   buffer its dependence mask selects — but never hoist out of a
   conditional arm, where execution is guarded.  Jumps only ever
   target [main], and conditional machinery is emitted with
   [emit_main], so [pre] and [col] stay straight-line. *)
let newf kc dep mk =
  let d = kc.nf in
  let ins = mk d in
  if kc.spec && not (spec_ok ins) then raise SpecBail;
  kc.nf <- d + 1;
  if kc.bdepth > 0 then begin
    ignore (Buf.push kc.fdep (-1));
    ignore (Buf.push kc.main ins)
  end
  else begin
    ignore (Buf.push kc.fdep dep);
    let buf =
      if dep = 0 then kc.pre
      else if dep land lnot kc.colmask = 0 then kc.col
      else kc.main
    in
    ignore (Buf.push buf ins)
  end;
  d

let newi kc dep mk =
  let d = kc.ni in
  let ins = mk d in
  if kc.spec && not (spec_ok ins) then raise SpecBail;
  kc.ni <- d + 1;
  if kc.bdepth > 0 then begin
    ignore (Buf.push kc.idep (-1));
    ignore (Buf.push kc.main ins)
  end
  else begin
    ignore (Buf.push kc.idep dep);
    let buf =
      if dep = 0 then kc.pre
      else if dep land lnot kc.colmask = 0 then kc.col
      else kc.main
    in
    ignore (Buf.push buf ins)
  end;
  d

(* Registers written from both arms of a conditional. *)
let reserve_f kc =
  let d = kc.nf in
  kc.nf <- d + 1;
  ignore (Buf.push kc.fdep (-1));
  d

let reserve_i kc =
  let d = kc.ni in
  kc.ni <- d + 1;
  ignore (Buf.push kc.idep (-1));
  d

let emit_main kc i = ignore (Buf.push kc.main i)

let mark kc = kc.trail

(* Forget CSE entries made on a conditionally-executed path. *)
let rollback kc m =
  let rec go l =
    if l != m then
      match l with
      | [] -> assert false
      | e :: rest ->
        Hashtbl.remove kc.cse e;
        go rest
  in
  go kc.trail;
  kc.trail <- m

(* Transactional compilation, for speculative conditional arms: a
   snapshot captures every buffer length and counter, and [restore]
   drops everything emitted or allocated since. *)
let snapshot kc =
  ( kc.pre.Buf.n,
    kc.col.Buf.n,
    kc.main.Buf.n,
    kc.nf,
    kc.ni,
    kc.fdep.Buf.n,
    kc.idep.Buf.n,
    kc.trail )

let restore kc (pn, cn, mn, nf, ni, fdn, idn, trail) =
  kc.pre.Buf.n <- pn;
  kc.col.Buf.n <- cn;
  kc.main.Buf.n <- mn;
  kc.nf <- nf;
  kc.ni <- ni;
  kc.fdep.Buf.n <- fdn;
  kc.idep.Buf.n <- idn;
  rollback kc trail

(* Does [e] contain a conditional construct (whose guarded parts must
   compile in place during the main walk)? *)
let rec has_guard = function
  | Dbl _ | Int _ | Bool _ | Var _ | With _ -> false
  | Cond _ | Binop ((And | Or), _, _) -> true
  | Vec es -> List.exists has_guard es
  | Binop (_, a, b) -> has_guard a || has_guard b
  | Unop (_, a) -> has_guard a
  | Idx (a, i) -> has_guard a || has_guard i
  | Call (_, args) -> List.exists has_guard args

let force_i kc r =
  match r with
  | RI d -> d
  | RIc n -> newi kc 0 (fun d -> KIimm (d, n))
  | _ -> raise Bail

let force_f kc r =
  match r with
  | RF d -> d
  | RI d -> newf kc (idep kc d) (fun o -> KI2F (o, d))
  | RIc n -> newf kc 0 (fun d -> KFimm (d, float_of_int n))
  | _ -> raise Bail

let cmp_of = function
  | Eq -> Ceq
  | Ne -> Cne
  | Lt -> Clt
  | Le -> Cle
  | Gt -> Cgt
  | Ge -> Cge
  | _ -> assert false

let rec ck kc e =
  match Hashtbl.find_opt kc.cse e with
  | Some r -> r
  | None ->
    let r = ck_new kc e in
    Hashtbl.add kc.cse e r;
    kc.trail <- e :: kc.trail;
    r

and ck_new kc e =
  match e with
  | Dbl x -> RF (newf kc 0 (fun d -> KFimm (d, x)))
  | Int n -> RIc n
  | Bool b -> RB (newi kc 0 (fun d -> KIimm (d, if b then 1 else 0)))
  | Var v ->
    if v = kc.kivar then RIvar
    else (
      match Hashtbl.find_opt kc.caps v with
      | Some (CF k) -> RF (newf kc 0 (fun d -> KFcap (d, k)))
      | Some (CI k) -> RI (newi kc 0 (fun d -> KIcap (d, k)))
      | Some (CB k) -> RB (newi kc 0 (fun d -> KIcap (d, k)))
      | Some (CArr (k, shp)) -> RArr (k, shp)
      | Some (CIv (k, len)) -> RIVcap (k, len)
      | None -> raise Bail)
  | Vec es ->
    let rs = List.map (ck kc) es in
    if List.for_all (function RIc _ -> true | _ -> false) rs then
      RIVc
        (Array.of_list
           (List.map (function RIc n -> n | _ -> assert false) rs))
    else raise Bail
  | Binop (And, a, b) -> ck_shortcircuit kc true a b
  | Binop (Or, a, b) -> ck_shortcircuit kc false a b
  | Binop ((Add | Sub | Mul | Div | Mod) as op, a, b) ->
    ck_arith kc op a b
  | Binop (op, a, b) -> ck_cmp kc op a b
  | Unop (Neg, a) -> (
    match ck kc a with
    | RIc n -> RIc (-n)
    | RI r -> RI (newi kc (idep kc r) (fun d -> KIneg (d, r)))
    | RF r -> RF (newf kc (fdep kc r) (fun d -> KFneg (d, r)))
    | RIVc v -> RIVc (Array.map (fun x -> -x) v)
    | _ -> raise Bail)
  | Unop (Not, a) -> (
    match ck kc a with
    | RB r -> RB (newi kc (idep kc r) (fun d -> KBnot (d, r)))
    | _ -> raise Bail)
  | Cond (c, a, b) -> ck_cond kc c a b
  | Idx (a, i) -> ck_idx kc a i
  | Call (f, args) -> ck_call kc f args
  | With _ -> raise Bail

(* [a && b] / [a || b].  The lhs must already be boolean (otherwise
   {!Eval} may still short-circuit or raise — the generic path sorts
   that out); the rhs is compiled under a guard with CSE rolled back
   afterwards, exactly like a conditional arm. *)
and ck_shortcircuit kc is_and a b =
  if kc.spec then raise SpecBail;
  let ca = match ck kc a with RB r -> r | _ -> raise Bail in
  let d = reserve_i kc in
  emit_main kc (KImov (d, ca));
  let j = Buf.push kc.main (KJmp (-1)) in
  kc.bdepth <- kc.bdepth + 1;
  let m = mark kc in
  let cb = match ck kc b with RB r -> r | _ -> raise Bail in
  emit_main kc (KImov (d, cb));
  rollback kc m;
  kc.bdepth <- kc.bdepth - 1;
  let t = kc.main.Buf.n in
  Buf.set kc.main j (if is_and then KJz (d, t) else KJnz (d, t));
  RB d

and ck_arith kc op a b =
  let ra = ck kc a in
  let rb = ck kc b in
  match (ra, rb) with
  | RIc x, RIc y
    when not ((op = Div || op = Mod) && y = 0) ->
    RIc
      (match op with
       | Add -> x + y
       | Sub -> x - y
       | Mul -> x * y
       | Div -> x / y
       | Mod -> x mod y
       | _ -> assert false)
  | (RI _ | RIc _), (RI _ | RIc _) ->
    let x = force_i kc ra in
    let y = force_i kc rb in
    let dep = idep kc x lor idep kc y in
    let mk =
      match op with
      | Add -> fun d -> KIadd (d, x, y)
      | Sub -> fun d -> KIsub (d, x, y)
      | Mul -> fun d -> KImul (d, x, y)
      | Div -> fun d -> KIdiv (d, x, y)
      | Mod -> fun d -> KImod (d, x, y)
      | _ -> assert false
    in
    RI (newi kc dep mk)
  | (RF _ | RI _ | RIc _), (RF _ | RI _ | RIc _) ->
    let x = force_f kc ra in
    let y = force_f kc rb in
    let dep = fdep kc x lor fdep kc y in
    let mk =
      match op with
      | Add -> fun d -> KFadd (d, x, y)
      | Sub -> fun d -> KFsub (d, x, y)
      | Mul -> fun d -> KFmul (d, x, y)
      | Div -> fun d -> KFdiv (d, x, y)
      | Mod -> fun d -> KFrem (d, x, y)
      | _ -> assert false
    in
    RF (newf kc dep mk)
  | _ -> raise Bail

and ck_cmp kc op a b =
  let c = cmp_of op in
  let ra = ck kc a in
  let rb = ck kc b in
  match (ra, rb) with
  | RB x, RB y ->
    if op <> Eq && op <> Ne then raise Bail;
    RB (newi kc (idep kc x lor idep kc y) (fun d -> KIcmp (c, d, x, y)))
  | RIc x, RIc y ->
    RB
      (newi kc 0 (fun d ->
           KIimm
             ( d,
               if fcmp c (float_of_int x) (float_of_int y) then 1
               else 0 )))
  | (RI _ | RIc _), (RI _ | RIc _) ->
    let x = force_i kc ra in
    let y = force_i kc rb in
    RB (newi kc (idep kc x lor idep kc y) (fun d -> KIcmp (c, d, x, y)))
  | (RF _ | RI _ | RIc _), (RF _ | RI _ | RIc _) ->
    let x = force_f kc ra in
    let y = force_f kc rb in
    RB (newf_cmp kc x y c)
  | _ -> raise Bail

and newf_cmp kc x y c =
  newi kc (fdep kc x lor fdep kc y) (fun d -> KFcmp (c, d, x, y))

(* A conditional keeps its kernel type only when both arms agree
   (int-ish, float, or boolean); mixed arms would lose {!Eval}'s
   per-branch typing (e.g. an int arm feeding integer division), so
   they bail out.

   Arms built solely from instructions that can never fault are
   compiled speculatively — both evaluate unconditionally, homed by
   their own dependence masks, and a select picks the live value.
   This keeps column-invariant arm arithmetic out of the per-element
   path and costs nothing semantically: the untaken arm computes a
   value nobody observes and no error Eval would not also reach. *)
and ck_cond kc c a b =
  let cr = match ck kc c with RB r -> r | _ -> raise Bail in
  match ck_cond_spec kc cr a b with
  | Some r -> r
  | None ->
    (* inside an enclosing speculation there is no branchy fallback:
       a guarded arm must not run unconditionally *)
    if kc.spec then raise SpecBail;
    ck_cond_branchy kc cr a b

and ck_cond_spec kc cr a b =
  begin
    let snap = snapshot kc in
    let was = kc.spec in
    kc.spec <- true;
    let picked =
      try
        let ra = ck kc a in
        let rb = ck kc b in
        match (ra, rb) with
        | RF _, RF _ | (RI _ | RIc _), (RI _ | RIc _) | RB _, RB _ ->
          Some (ra, rb)
        | _ -> None
      with SpecBail | Bail -> None
    in
    kc.spec <- was;
    match picked with
    | None ->
      restore kc snap;
      None
    | Some (ra, rb) ->
      let depc = idep kc cr in
      (match (ra, rb) with
       | RF x, RF y ->
         Some
           (RF
              (newf kc
                 (depc lor fdep kc x lor fdep kc y)
                 (fun d -> KFsel (d, cr, x, y))))
       | (RI _ | RIc _), (RI _ | RIc _) ->
         let x = force_i kc ra in
         let y = force_i kc rb in
         Some
           (RI
              (newi kc
                 (depc lor idep kc x lor idep kc y)
                 (fun d -> KIsel (d, cr, x, y))))
       | RB x, RB y ->
         Some
           (RB
              (newi kc
                 (depc lor idep kc x lor idep kc y)
                 (fun d -> KIsel (d, cr, x, y))))
       | _ -> assert false)
  end

and ck_cond_branchy kc cr a b =
  let df = reserve_f kc in
  let di = reserve_i kc in
  let store r =
    match r with
    | RF s -> emit_main kc (KFmov (df, s))
    | RI s -> emit_main kc (KImov (di, s))
    | RIc n -> emit_main kc (KIimm (di, n))
    | RB s -> emit_main kc (KImov (di, s))
    | _ -> raise Bail
  in
  let j1 = Buf.push kc.main (KJmp (-1)) in
  kc.bdepth <- kc.bdepth + 1;
  let m = mark kc in
  let ra = ck kc a in
  store ra;
  rollback kc m;
  let j2 = Buf.push kc.main (KJmp (-1)) in
  Buf.set kc.main j1 (KJz (cr, kc.main.Buf.n));
  let rb = ck kc b in
  store rb;
  rollback kc m;
  kc.bdepth <- kc.bdepth - 1;
  Buf.set kc.main j2 (KJmp kc.main.Buf.n);
  match (ra, rb) with
  | RB _, RB _ -> RB di
  | (RI _ | RIc _), (RI _ | RIc _) -> RI di
  | RF _, RF _ -> RF df
  | _ -> raise Bail

and ck_idx kc a i =
  let ra = ck kc a in
  match ra with
  | RArr (bank, shape) -> ck_idx_arr kc bank shape i
  | RIVcap (bank, len) -> ck_idx_ivcap kc bank len i
  | RIvar -> ck_idx_ivar kc i
  | RIVc v -> (
    match ck kc i with
    | RIc k | RIVc [| k |] ->
      if k >= 0 && k < Array.length v then RIc v.(k) else raise Bail
    | _ -> raise Bail)
  | _ -> raise Bail

(* Array indexing.  Constant in-range components fold into the base
   offset; dynamic ones become bounds-checked (reg, extent, stride)
   triples.  A fully-invariant load hoists to the prefix. *)
and ck_idx_arr kc bank shape i =
  let rank = Array.length shape in
  let strides = Tensor.Shape.strides shape in
  let comps =
    match i with
    | Vec es ->
      if List.length es <> rank then raise Bail;
      List.mapi (fun d e -> (d, ck kc e)) es
    | _ -> (
      match ck kc i with
      | RIvar ->
        if kc.krank <> rank then raise Bail;
        List.init rank (fun d ->
            (d, RI (newi kc (1 lsl d) (fun r -> KIv (r, d)))))
      | RIVc v ->
        if Array.length v <> rank then raise Bail;
        List.init rank (fun d -> (d, RIc v.(d)))
      | RIVcap (bk, len) ->
        if len <> rank then raise Bail;
        List.init rank (fun d ->
            (d, RI (newi kc 0 (fun r -> KLoadIvC (r, bk, d)))))
      | (RI _ | RIc _) as r ->
        if rank <> 1 then raise Bail;
        [ (0, r) ]
      | _ -> raise Bail)
  in
  let base = ref 0 in
  let dyn = ref [] in
  let dep = ref 0 in
  List.iter
    (fun (d, r) ->
      match r with
      | RIc n ->
        if n >= 0 && n < shape.(d) then
          base := !base + (n * strides.(d))
        else begin
          (* out of range: keep it dynamic so the runtime check
             raises the interpreter's error *)
          let reg = newi kc 0 (fun o -> KIimm (o, n)) in
          dyn := (reg, shape.(d), strides.(d)) :: !dyn
        end
      | RI reg ->
        dep := !dep lor idep kc reg;
        dyn := (reg, shape.(d), strides.(d)) :: !dyn
      | _ -> raise Bail)
    comps;
  let dyn = Array.of_list (List.rev !dyn) in
  let base = !base in
  let dep = !dep in
  match dyn with
  | [||] -> RF (newf kc 0 (fun d -> KLoadC (d, bank, base)))
  | [| (r, ext, 1) |] ->
    RF (newf kc dep (fun d -> KLoad1 (d, bank, base, r, ext)))
  | [| (r0, e0, s0); (r1, e1, s1) |] ->
    RF (newf kc dep (fun d -> KLoad2 (d, bank, base, r0, e0, s0, r1, e1, s1)))
  | _ -> RF (newf kc dep (fun d -> KLoad (d, bank, base, dyn)))

and ck_idx_ivcap kc bank len i =
  match ck kc i with
  | RIc n | RIVc [| n |] ->
    if n >= 0 && n < len then
      RI (newi kc 0 (fun d -> KLoadIvC (d, bank, n)))
    else
      let r = newi kc 0 (fun o -> KIimm (o, n)) in
      RI (newi kc 0 (fun d -> KLoadIv (d, bank, r, len)))
  | RI r -> RI (newi kc (idep kc r) (fun d -> KLoadIv (d, bank, r, len)))
  | RIvar ->
    if kc.krank <> 1 then raise Bail;
    let r = newi kc 1 (fun o -> KIv (o, 0)) in
    RI (newi kc 1 (fun d -> KLoadIv (d, bank, r, len)))
  | _ -> raise Bail

and ck_idx_ivar kc i =
  match ck kc i with
  | RIc k | RIVc [| k |] ->
    if k >= 0 && k < kc.krank then
      RI (newi kc (1 lsl k) (fun d -> KIv (d, k)))
    else raise Bail
  | RI r -> RI (newi kc (alldims kc) (fun d -> KIvD (d, r, kc.krank)))
  | _ -> raise Bail

(* Builtin calls with purely scalar semantics; anything that maps over
   an array (and would tick the with-loop statistics) bails out. *)
and ck_call kc f args =
  if Ast.lookup_fun kc.kprog f <> None then raise Bail;
  match (f, args) with
  | ("sqrt" | "exp" | "log"), [ a ] ->
    let r = force_f kc (ck kc a) in
    let dep = fdep kc r in
    let mk =
      match f with
      | "sqrt" -> fun d -> KSqrt (d, r)
      | "exp" -> fun d -> KExp (d, r)
      | _ -> fun d -> KLog (d, r)
    in
    RF (newf kc dep mk)
  | ("fabs" | "abs"), [ a ] -> (
    match ck kc a with
    | RIc n -> RIc (abs n)
    | RI r -> RI (newi kc (idep kc r) (fun d -> KIabs (d, r)))
    | RF r -> RF (newf kc (fdep kc r) (fun d -> KFabs (d, r)))
    | _ -> raise Bail)
  | ("min" | "max"), [ a; b ] -> (
    let is_min = f = "min" in
    let ra = ck kc a in
    let rb = ck kc b in
    match (ra, rb) with
    | RIc x, RIc y ->
      let fx = float_of_int x and fy = float_of_int y in
      RIc
        (if (if is_min then fx <= fy else fx >= fy) then x else y)
    | (RI _ | RIc _), (RI _ | RIc _) ->
      let x = force_i kc ra in
      let y = force_i kc rb in
      let dep = idep kc x lor idep kc y in
      RI
        (newi kc dep (fun d ->
             if is_min then KImin (d, x, y) else KImax (d, x, y)))
    | (RF _ | RI _ | RIc _), (RF _ | RI _ | RIc _) ->
      let x = force_f kc ra in
      let y = force_f kc rb in
      let dep = fdep kc x lor fdep kc y in
      RF
        (newf kc dep (fun d ->
             if is_min then KFmin (d, x, y) else KFmax (d, x, y)))
    | _ -> raise Bail)
  | "pow", [ a; b ] ->
    let x = force_f kc (ck kc a) in
    let y = force_f kc (ck kc b) in
    RF (newf kc (fdep kc x lor fdep kc y) (fun d -> KPow (d, x, y)))
  | "shape", [ a ] -> (
    match ck kc a with
    | RArr (_, shp) -> RIVc shp
    | RIVcap (_, len) -> RIVc [| len |]
    | RIVc v -> RIVc [| Array.length v |]
    | RIvar -> RIVc [| kc.krank |]
    | RF _ | RI _ | RIc _ -> RIVc [||]
    | _ -> raise Bail)
  | "dim", [ a ] -> (
    match ck kc a with
    | RArr (_, shp) -> RIc (Array.length shp)
    | RIVcap _ | RIVc _ | RIvar -> RIc 1
    | RF _ | RI _ | RIc _ -> RIc 0
    | _ -> raise Bail)
  | "sum", [ a ] -> (
    match ck kc a with
    | RIVc v -> RIc (Array.fold_left ( + ) 0 v)
    | _ -> raise Bail)
  | _ -> raise Bail

(* CSE pre-seeding: compile every composite subexpression the body
   evaluates unconditionally (skipping conditional arms and the guarded
   sides of [&&]/[||]) before the main walk.  Shared subexpressions
   then live in bdepth-0 registers — homed by their dependence masks —
   and the conditional arms pick them up through the CSE table instead
   of recompiling private per-element copies.  The evaluated-expression
   set is unchanged; only the order in which unconditional code runs
   relative to conditional arms moves, which (as with hoisting) can
   change which of several runtime errors inside one element surfaces
   first. *)
let rec seed kc e =
  match e with
  | Dbl _ | Int _ | Bool _ | Var _ | With _ -> ()
  | Vec es -> List.iter (seedc kc) es
  | Binop ((And | Or), a, _) -> seedc kc a
  | Binop (_, a, b) ->
    seedc kc a;
    seedc kc b
  | Unop (_, a) -> seedc kc a
  | Cond (c, _, _) -> seedc kc c
  | Idx (a, i) ->
    seedc kc a;
    (match i with
     | Vec es -> List.iter (seedc kc) es
     | _ -> seedc kc i)
  | Call (_, args) -> List.iter (seedc kc) args

and seedc kc e =
  seed kc e;
  match e with
  | Binop _ | Unop _ | Idx _ | Call _ ->
    (* only guard-free expressions compile ahead of the main walk;
       anything containing a conditional compiles in place so its
       guarded parts stay guarded *)
    if not (has_guard e) then ignore (ck kc e)
  | Cond _ | Dbl _ | Int _ | Bool _ | Var _ | Vec _ | With _ -> ()

(* Registers an instruction reads, as (float, int) register lists —
   used to find the column block's live-outs. *)
let kinstr_reads = function
  | KFimm _ | KIimm _ | KFcap _ | KIcap _ | KIv _ | KJmp _ | KLoadC _
  | KLoadIvC _ ->
    ([], [])
  | KIvD (_, r, _) | KJz (r, _) | KJnz (r, _) | KLoad1 (_, _, _, r, _)
  | KLoadIv (_, _, r, _) ->
    ([], [ r ])
  | KFadd (_, a, b) | KFsub (_, a, b) | KFmul (_, a, b)
  | KFdiv (_, a, b) | KFrem (_, a, b) | KPow (_, a, b)
  | KFmin (_, a, b) | KFmax (_, a, b) | KFcmp (_, _, a, b) ->
    ([ a; b ], [])
  | KIadd (_, a, b) | KIsub (_, a, b) | KImul (_, a, b)
  | KIdiv (_, a, b) | KImod (_, a, b) | KImin (_, a, b)
  | KImax (_, a, b) | KIcmp (_, _, a, b) ->
    ([], [ a; b ])
  | KFneg (_, a) | KFabs (_, a) | KSqrt (_, a) | KExp (_, a)
  | KLog (_, a) | KFmov (_, a) ->
    ([ a ], [])
  | KIneg (_, a) | KIabs (_, a) | KBnot (_, a) | KImov (_, a)
  | KI2F (_, a) ->
    ([], [ a ])
  | KFsel (_, c, a, b) -> ([ a; b ], [ c ])
  | KIsel (_, c, a, b) -> ([], [ c; a; b ])
  | KFmadd (_, a, b, c) | KFmsub (_, a, b, c) -> ([ a; b; c ], [])
  | KFaddm (_, c, a, b) | KFsubm (_, c, a, b) -> ([ c; a; b ], [])
  | KLoad2 (_, _, _, r0, _, _, r1, _, _) -> ([], [ r0; r1 ])
  | KLoad (_, _, _, dyn) ->
    ([], Array.to_list (Array.map (fun (r, _, _) -> r) dyn))

(* Peephole over a straight-line instruction sequence: fuse a multiply
   whose result feeds exactly one adjacent add/sub into a single
   mul-then-add/sub instruction.  The fused opcode performs the same
   two separately-rounded IEEE operations in the same operand order,
   so results are bitwise identical to the unfused pair; only dispatch
   cost is saved.  [fread.(r)] counts every read of float register [r]
   across the whole kernel (output included), so [fread.(t) = 1] means
   the adjacent consumer is the sole use of the intermediate. *)
let peephole ~fread code =
  let jumpy =
    Array.exists (function KJmp _ | KJz _ | KJnz _ -> true | _ -> false) code
  in
  if jumpy then code
  else begin
    let out = ref [] in
    let n = Array.length code in
    let i = ref 0 in
    while !i < n do
      let fused =
        if !i + 1 >= n then None
        else
          match (code.(!i), code.(!i + 1)) with
          | KFmul (t, a, b), KFadd (d, x, y) when x = t && y <> t && fread.(t) = 1
            ->
            Some (KFmadd (d, a, b, y))
          | KFmul (t, a, b), KFadd (d, x, y) when y = t && x <> t && fread.(t) = 1
            ->
            Some (KFaddm (d, x, a, b))
          | KFmul (t, a, b), KFsub (d, x, y) when x = t && y <> t && fread.(t) = 1
            ->
            Some (KFmsub (d, a, b, y))
          | KFmul (t, a, b), KFsub (d, x, y) when y = t && x <> t && fread.(t) = 1
            ->
            Some (KFsubm (d, x, a, b))
          | _ -> None
      in
      match fused with
      | Some ins ->
        out := ins :: !out;
        i := !i + 2
      | None ->
        out := code.(!i) :: !out;
        incr i
    done;
    Array.of_list (List.rev !out)
  end

(* The int register an instruction writes, if any. *)
let kinstr_iwrite = function
  | KIimm (d, _) | KIcap (d, _) | KIv (d, _) | KIvD (d, _, _)
  | KIadd (d, _, _) | KIsub (d, _, _) | KImul (d, _, _) | KIdiv (d, _, _)
  | KImod (d, _, _) | KIneg (d, _) | KIabs (d, _) | KImin (d, _, _)
  | KImax (d, _, _) | KFcmp (_, d, _, _) | KIcmp (_, d, _, _)
  | KBnot (d, _) | KIsel (d, _, _, _) | KImov (d, _) | KLoadIvC (d, _, _)
  | KLoadIv (d, _, _, _) ->
    Some d
  | KFimm _ | KFcap _ | KFadd _ | KFsub _ | KFmul _ | KFdiv _ | KFrem _
  | KFmadd _ | KFaddm _ | KFmsub _ | KFsubm _ | KFneg _ | KFabs _
  | KSqrt _ | KExp _ | KLog _ | KPow _ | KFmin _ | KFmax _ | KI2F _
  | KFsel _ | KFmov _ | KJmp _ | KJz _ | KJnz _ | KLoadC _ | KLoad1 _
  | KLoad2 _ | KLoad _ ->
    None

(* Abstract value of an int register during the affine walk.  [ABox]
   carries in-boundedness certificates for min/max-clamped values in
   disjunctive normal form: the value is >= 0 if some alternative in
   the lower list has all its bounds >= 0, and < ext if some
   alternative in the upper list has all its bounds < ext ([[]] = no
   certificate).  Certificates are not compositional — arithmetic on a
   clamped value drops to [ATop] — but a clamp like
   [min (max (iv - 1) 0) (n - 1)] feeding a load directly is exactly
   the idiom boundary paddings use. *)
type iabs =
  | AConst of int
  | AAff of int * int
  | APre of int                   (* prefix register: fill-constant *)
  | ABox of gbnd list list * gbnd list list
  | ATop

(* Lower/upper certificate alternatives of an abstract value. *)
let abs_lo = function
  | AConst c -> [ [ GC c ] ]
  | AAff (d, o) -> [ [ GIv (d, o) ] ]
  | APre r -> [ [ GR (r, 0) ] ]
  | ABox (lo, _) -> lo
  | ATop -> []

let abs_hi = function
  | AConst c -> [ [ GC c ] ]
  | AAff (d, o) -> [ [ GIv (d, o) ] ]
  | APre r -> [ [ GR (r, 0) ] ]
  | ABox (_, hi) -> hi
  | ATop -> []

(* Conjunction of two DNF certificate sets: every pairing of one
   alternative from each. *)
let gcross a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | _ -> List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) b) a

(* Forward affine walk over the straight-line blocks, in execution
   order.  Returns the constraints under which every array load in
   [col] and [code] is in bounds for the whole index range, or [None]
   when some load index is neither affine in the loop index nor
   clamped to certified bounds (or the per-element block branches, so
   a linear walk would be unsound). *)
let load_guards ~pre ~col ~code ni =
  let jumpy =
    Array.exists (function KJmp _ | KJz _ | KJnz _ -> true | _ -> false) code
  in
  if jumpy then None
  else begin
    let st = Array.make (max 1 ni) ATop in
    let ok = ref true in
    let gs = ref [] in
    (* Resolve constant bounds now; [None] = some alternative is
       trivially true (no guard needed), [Some []] = nothing provable. *)
    let simplify test alts =
      let triv = ref false in
      let alts =
        List.filter_map
          (fun clause ->
            if List.exists (function GC c -> not (test c) | _ -> false)
                 clause
            then None
            else begin
              match
                List.filter (function GC _ -> false | _ -> true) clause
              with
              | [] ->
                triv := true;
                None
              | keep -> Some keep
            end)
          alts
      in
      if !triv then None else Some alts
    in
    let guard ~collect r ext =
      if collect then
        match st.(r) with
        | AConst c -> if c < 0 || c >= ext then ok := false
        | a -> (
          (match simplify (fun c -> c >= 0) (abs_lo a) with
           | None -> ()
           | Some [] -> ok := false
           | Some alts -> gs := Glo alts :: !gs);
          match simplify (fun c -> c < ext) (abs_hi a) with
          | None -> ()
          | Some [] -> ok := false
          | Some alts -> gs := Ghi (ext, alts) :: !gs)
    in
    let step ~inpre ins =
      let collect = not inpre in
      (match ins with
       | KLoad1 (_, _, _, r, ext) -> guard ~collect r ext
       | KLoad2 (_, _, _, r0, e0, _, r1, e1, _) ->
         guard ~collect r0 e0;
         guard ~collect r1 e1
       | KLoad (_, _, _, dyn) ->
         Array.iter (fun (r, ext, _) -> guard ~collect r ext) dyn
       | _ -> ());
      (match ins with
       | KIimm (d, c) -> st.(d) <- AConst c
       | KIv (d, k) -> st.(d) <- AAff (k, 0)
       | KIadd (d, a, b) ->
         st.(d) <-
           (match (st.(a), st.(b)) with
            | AConst x, AConst y -> AConst (x + y)
            | AAff (k, o), AConst c | AConst c, AAff (k, o) ->
              AAff (k, o + c)
            | _ -> ATop)
       | KIsub (d, a, b) ->
         st.(d) <-
           (match (st.(a), st.(b)) with
            | AConst x, AConst y -> AConst (x - y)
            | AAff (k, o), AConst c -> AAff (k, o - c)
            | _ -> ATop)
       | KImax (d, a, b) ->
         (* max is >= either operand alone, and < ext only when both
            operands are. *)
         let va = st.(a) and vb = st.(b) in
         let lo = abs_lo va @ abs_lo vb in
         let hi = gcross (abs_hi va) (abs_hi vb) in
         st.(d) <- (if lo = [] && hi = [] then ATop else ABox (lo, hi))
       | KImin (d, a, b) ->
         (* dually: min is < ext when either operand is, and >= 0 only
            when both are. *)
         let va = st.(a) and vb = st.(b) in
         let lo = gcross (abs_lo va) (abs_lo vb) in
         let hi = abs_hi va @ abs_hi vb in
         st.(d) <- (if lo = [] && hi = [] then ATop else ABox (lo, hi))
       | KImov (d, s) -> st.(d) <- st.(s)
       | ins -> (
         match kinstr_iwrite ins with
         | Some d -> st.(d) <- ATop
         | None -> ()));
      (* Prefix registers are never rewritten (register allocation is
         single-assignment outside conditional merges, which live in
         the per-element block), so their fill-time values certify
         bounds for the whole execution. *)
      if inpre then
        match kinstr_iwrite ins with
        | Some d -> ( match st.(d) with ATop -> st.(d) <- APre d | _ -> ())
        | None -> ()
    in
    Array.iter (step ~inpre:true) pre;
    Array.iter (step ~inpre:false) col;
    Array.iter (step ~inpre:false) code;
    if !ok then Some (Array.of_list !gs) else None
  end

let compile_kernel prog (w : B.wdesc) rank caps =
  let kc =
    { kprog = prog;
      caps;
      kivar = w.B.w_ivar;
      krank = rank;
      colmask = (if rank >= 2 then 1 lsl (rank - 1) else 0);
      pre = Buf.create ();
      col = Buf.create ();
      main = Buf.create ();
      nf = 0;
      ni = 0;
      fdep = Buf.create ();
      idep = Buf.create ();
      cse = Hashtbl.create 64;
      trail = [];
      bdepth = 0;
      spec = false }
  in
  try
    seedc kc w.B.w_body_expr;
    let out =
      match ck kc w.B.w_body_expr with
      | RF d -> d
      | RI r -> newf kc (idep kc r) (fun d -> KI2F (d, r))
      | RIc n -> newf kc 0 (fun d -> KFimm (d, float_of_int n))
      | _ -> raise Bail
    in
    let kpre = Buf.to_array kc.pre in
    let kcol = Buf.to_array kc.col in
    let kmain = Buf.to_array kc.main in
    let fread = Array.make (max 1 kc.nf) 0 in
    let count code =
      Array.iter
        (fun ins ->
          let fs, _ = kinstr_reads ins in
          List.iter (fun r -> fread.(r) <- fread.(r) + 1) fs)
        code
    in
    count kpre;
    count kcol;
    count kmain;
    fread.(out) <- fread.(out) + 1;
    let kpre = peephole ~fread kpre in
    let kcol = peephole ~fread kcol in
    let kcode = peephole ~fread kmain in
    (* Column live-outs: col-homed registers the per-element code (or
       the output) still reads; these are what a sequential walk saves
       per column and replays on later rows. *)
    let col_homed dep = dep <> 0 && dep land lnot kc.colmask = 0 in
    let usef = Array.make (max 1 kc.nf) false in
    let usei = Array.make (max 1 kc.ni) false in
    Array.iter
      (fun ins ->
        let fs, is = kinstr_reads ins in
        List.iter (fun r -> if col_homed (fdep kc r) then usef.(r) <- true) fs;
        List.iter (fun r -> if col_homed (idep kc r) then usei.(r) <- true) is)
      kcode;
    if col_homed (fdep kc out) then usef.(out) <- true;
    let live use =
      let l = ref [] in
      Array.iteri (fun r u -> if u then l := r :: !l) use;
      Array.of_list (List.rev !l)
    in
    let kguards = load_guards ~pre:kpre ~col:kcol ~code:kcode kc.ni in
    Some
      { kpre;
        kcol;
        kcode;
        knf = max 1 kc.nf;
        kni = max 1 kc.ni;
        kout = out;
        klive_f = live usef;
        klive_i = live usei;
        kguards }
  with Bail -> None

(* ---------------- batched (strip) execution ----------------------- *)

(* Straight-line kernel blocks can also run one instruction over a
   whole strip of the innermost dimension: each kinstr compiles into a
   closure that loops its operation across the strip's lanes, so the
   threaded walk's per-element dispatch (one indirect call per
   instruction per element) is amortised over up to [batch_width]
   elements and the per-element cost collapses to the arithmetic
   itself.  Lanes never interact — element [j]'s value is produced by
   exactly the scalar instruction sequence reading and writing lane
   [j] of every vector register — so results are bitwise identical to
   the per-element walk.  Only the order in which elements are
   visited changes, and that is unobservable for batchable blocks:
   loads run unchecked (callers enter the batched path only when
   {!guards_hold} proved every [kcol]/[kcode] load in range for the
   actual bounds), and the sole remaining fault, integer division or
   modulo by zero, raises the payload-free [Division_by_zero] — a
   straight-line block executes the same instruction on the same
   elements in either order, so whether the exception fires (and
   which exception) is order-independent.  Jumps would let lanes
   diverge and dynamic index-vector reads carry index-dependent
   bounds errors; blocks containing either keep the threaded walk. *)
let batch_width = 128

let batchable code =
  Array.for_all
    (function
      | KJmp _ | KJz _ | KJnz _ | KIvD _ | KLoadIv _ -> false
      | _ -> true)
    code

let kinstr_fwrite = function
  | KFimm (d, _) | KFcap (d, _) | KFadd (d, _, _) | KFsub (d, _, _)
  | KFmul (d, _, _) | KFdiv (d, _, _) | KFrem (d, _, _)
  | KFmadd (d, _, _, _) | KFaddm (d, _, _, _) | KFmsub (d, _, _, _)
  | KFsubm (d, _, _, _) | KFneg (d, _) | KFabs (d, _) | KSqrt (d, _)
  | KExp (d, _) | KLog (d, _) | KPow (d, _, _) | KFmin (d, _, _)
  | KFmax (d, _, _) | KI2F (d, _) | KFsel (d, _, _, _) | KFmov (d, _)
  | KLoadC (d, _, _) | KLoad1 (d, _, _, _, _)
  | KLoad2 (d, _, _, _, _, _, _, _, _) | KLoad (d, _, _, _) ->
    Some d
  | _ -> None

(* Registers a block writes: what the invariant prefix leaves in the
   scalar register files and the batched blocks read back as
   broadcasts. *)
let kdests code =
  let fs = ref [] and is_ = ref [] in
  Array.iter
    (fun ins ->
      (match kinstr_fwrite ins with
       | Some d -> fs := d :: !fs
       | None -> ());
      (match kinstr_iwrite ins with
       | Some d -> is_ := d :: !is_
       | None -> ()))
    code;
  (Array.of_list !fs, Array.of_list !is_)

(* Batched register files: one [batch_width]-wide vector per scalar
   register, taken from the lane's shared {!strips} pool.  [bstart.(0)]
   holds the absolute index of the strip's first element along the
   ramped (innermost) dimension and [blen.(0)] the strip length; both
   are single-cell arrays so the compiled closures read the current
   strip without any boxing.  The batched blocks share the lane's
   scalar [kidx] for the non-ramped dimensions (broadcast at each
   [KIv]) and its capture banks. *)
type bstate = {
  bfr : float array array;
  bir : int array array;
  bstart : int array;
  blen : int array;
  btcol : unit -> unit;           (* batched [kcol] *)
  btcode : unit -> unit;          (* batched [kcode]; [khalt] unless... *)
  bcode_ok : bool;                (* ...the per-element block is
                                     straight-line *)
  bpre_f : int array;             (* [kpre] float dests, seeded per fill *)
  bpre_i : int array;
}

(* Lane-shape of an int register across a strip: [BUnif] — every lane
   holds the same value; [BRamp] — lane [j] holds lane 0's value plus
   [j] (the strip's own index, possibly offset); [BOther] — arbitrary
   per-lane.  Registers are written exactly once across the kernel's
   blocks (allocation is SSA-like), so one forward pass over
   [kpre]-dests, [kcol] and [kcode] fixes each register's shape for
   good. *)
type bcls = BUnif | BRamp | BOther

let classify_block cls ramp code =
  Array.iter
    (fun ins ->
      match ins with
      | KIv (d, k) -> cls.(d) <- (if k = ramp then BRamp else BUnif)
      | KIimm (d, _) | KIcap (d, _) | KLoadIvC (d, _, _) ->
        cls.(d) <- BUnif
      | KIadd (d, a, b) ->
        cls.(d) <-
          (match (cls.(a), cls.(b)) with
           | BUnif, BUnif -> BUnif
           | BRamp, BUnif | BUnif, BRamp -> BRamp
           | _ -> BOther)
      | KIsub (d, a, b) ->
        cls.(d) <-
          (match (cls.(a), cls.(b)) with
           | BUnif, BUnif | BRamp, BRamp -> BUnif
           | BRamp, BUnif -> BRamp
           | _ -> BOther)
      | KImov (d, a) -> cls.(d) <- cls.(a)
      | KImul (d, a, b) | KIdiv (d, a, b) | KImod (d, a, b)
      | KImin (d, a, b) | KImax (d, a, b) ->
        cls.(d) <-
          (match (cls.(a), cls.(b)) with
           | BUnif, BUnif -> BUnif
           | _ -> BOther)
      | KIneg (d, a) | KIabs (d, a) | KBnot (d, a) ->
        cls.(d) <- (match cls.(a) with BUnif -> BUnif | _ -> BOther)
      | KIcmp (_, d, a, b) ->
        cls.(d) <-
          (match (cls.(a), cls.(b)) with
           | BUnif, BUnif -> BUnif
           | _ -> BOther)
      | KIsel (d, c, a, b) ->
        cls.(d) <-
          (match (cls.(c), cls.(a), cls.(b)) with
           | BUnif, BUnif, BUnif -> BUnif
           | _ -> BOther)
      | ins -> (
        match kinstr_iwrite ins with
        | Some d -> cls.(d) <- BOther
        | None -> ()))
    code

(* A load whose every index register is [BUnif] or [BRamp] reads only
   lane 0 of those registers: the per-lane offsets form an arithmetic
   sequence starting at the lane-0 offset. *)
let load_lane0 cls = function
  | KLoad1 (_, _, _, r, _) -> cls.(r) <> BOther
  | KLoad2 (_, _, _, r0, _, _, r1, _, _) ->
    cls.(r0) <> BOther && cls.(r1) <> BOther
  | KLoad (_, _, _, dyn) ->
    Array.for_all (fun (r, _, _) -> cls.(r) <> BOther) dyn
  | _ -> false

(* Int instructions that may run on lane 0 alone when nothing reads
   their other lanes.  Raising instructions are excluded: skipping a
   lane could suppress a [Division_by_zero] the scalar walk raises. *)
let lane0_ok = function
  | KIimm _ | KIcap _ | KIv _ | KIadd _ | KIsub _ | KImul _ | KImov _
  | KLoadIvC _ ->
    true
  | _ -> false

(* Backward pass: which int registers must hold all lanes?  Mirrors
   the compile-time choices exactly — specialised loads read lane 0
   only; everything else reads all lanes unless its own destination
   needs lane 0 only and the instruction is [lane0_ok]. *)
let mark_fullneed cls fullneed code =
  for i = Array.length code - 1 downto 0 do
    let ins = code.(i) in
    let full =
      match ins with
      | KLoad1 _ | KLoad2 _ | KLoad _ -> not (load_lane0 cls ins)
      | ins when lane0_ok ins -> (
        match kinstr_iwrite ins with
        | Some d -> fullneed.(d)
        | None -> true)
      | _ -> true
    in
    if full then begin
      let _, is_ = kinstr_reads ins in
      List.iter (fun r -> fullneed.(r) <- true) is_
    end
  done

(* Strip-compile a straight-line block.  Same closure threading as
   {!build_thread}; every closure loops lanes [0, blen.(0)).  Loads
   are always unchecked here (see the batched-path precondition
   above); [ramp] names the index dimension driven by the strip. *)
let build_batch ~ramp ~cls ~fullneed (code : kinstr array)
    (bfr : float array array) (bir : int array array) (idx : int array)
    (bk : banks) (bstart : int array) (blen : int array) : unit -> unit =
  let n = Array.length code in
  if n = 0 then khalt
  else begin
    let t = Array.make (n + 1) khalt in
    for i = n - 1 downto 0 do
      let next = Array.unsafe_get t (i + 1) in
      let step =
        match code.(i) with
        | KFimm (d, x) ->
          let vd = bfr.(d) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j x
            done;
            next ()
        | KIimm (d, x) ->
          let vd = bir.(d) in
          let one = not fullneed.(d) in
          fun () ->
            let n = if one then 1 else Array.unsafe_get blen 0 in
            for j = 0 to n - 1 do
              Array.unsafe_set vd j x
            done;
            next ()
        | KFcap (d, k) ->
          let vd = bfr.(d) in
          fun () ->
            let x = Array.unsafe_get bk.fcap k in
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j x
            done;
            next ()
        | KIcap (d, k) ->
          let vd = bir.(d) in
          let one = not fullneed.(d) in
          fun () ->
            let x = Array.unsafe_get bk.icap k in
            let n = if one then 1 else Array.unsafe_get blen 0 in
            for j = 0 to n - 1 do
              Array.unsafe_set vd j x
            done;
            next ()
        | KIv (d, k) ->
          let vd = bir.(d) in
          let one = not fullneed.(d) in
          if k = ramp then
            fun () ->
              let s = Array.unsafe_get bstart 0 in
              let n = if one then 1 else Array.unsafe_get blen 0 in
              for j = 0 to n - 1 do
                Array.unsafe_set vd j (s + j)
              done;
              next ()
          else
            fun () ->
              let x = Array.unsafe_get idx k in
              let n = if one then 1 else Array.unsafe_get blen 0 in
              for j = 0 to n - 1 do
                Array.unsafe_set vd j x
              done;
              next ()
        | KFadd (d, a, b) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                (Array.unsafe_get va j +. Array.unsafe_get vb j)
            done;
            next ()
        | KFsub (d, a, b) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                (Array.unsafe_get va j -. Array.unsafe_get vb j)
            done;
            next ()
        | KFmul (d, a, b) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                (Array.unsafe_get va j *. Array.unsafe_get vb j)
            done;
            next ()
        | KFdiv (d, a, b) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                (Array.unsafe_get va j /. Array.unsafe_get vb j)
            done;
            next ()
        | KFrem (d, a, b) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                (Float.rem (Array.unsafe_get va j) (Array.unsafe_get vb j))
            done;
            next ()
        | KFmadd (d, a, b, c) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b)
          and vc = bfr.(c) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                ((Array.unsafe_get va j *. Array.unsafe_get vb j)
                 +. Array.unsafe_get vc j)
            done;
            next ()
        | KFaddm (d, c, a, b) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b)
          and vc = bfr.(c) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                (Array.unsafe_get vc j
                 +. (Array.unsafe_get va j *. Array.unsafe_get vb j))
            done;
            next ()
        | KFmsub (d, a, b, c) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b)
          and vc = bfr.(c) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                ((Array.unsafe_get va j *. Array.unsafe_get vb j)
                 -. Array.unsafe_get vc j)
            done;
            next ()
        | KFsubm (d, c, a, b) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b)
          and vc = bfr.(c) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                (Array.unsafe_get vc j
                 -. (Array.unsafe_get va j *. Array.unsafe_get vb j))
            done;
            next ()
        | KIadd (d, a, b) ->
          let vd = bir.(d) and va = bir.(a) and vb = bir.(b) in
          let one = not fullneed.(d) in
          fun () ->
            let n = if one then 1 else Array.unsafe_get blen 0 in
            for j = 0 to n - 1 do
              Array.unsafe_set vd j
                (Array.unsafe_get va j + Array.unsafe_get vb j)
            done;
            next ()
        | KIsub (d, a, b) ->
          let vd = bir.(d) and va = bir.(a) and vb = bir.(b) in
          let one = not fullneed.(d) in
          fun () ->
            let n = if one then 1 else Array.unsafe_get blen 0 in
            for j = 0 to n - 1 do
              Array.unsafe_set vd j
                (Array.unsafe_get va j - Array.unsafe_get vb j)
            done;
            next ()
        | KImul (d, a, b) ->
          let vd = bir.(d) and va = bir.(a) and vb = bir.(b) in
          let one = not fullneed.(d) in
          fun () ->
            let n = if one then 1 else Array.unsafe_get blen 0 in
            for j = 0 to n - 1 do
              Array.unsafe_set vd j
                (Array.unsafe_get va j * Array.unsafe_get vb j)
            done;
            next ()
        | KIdiv (d, a, b) ->
          let vd = bir.(d) and va = bir.(a) and vb = bir.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              let y = Array.unsafe_get vb j in
              if y = 0 then raise Division_by_zero;
              Array.unsafe_set vd j (Array.unsafe_get va j / y)
            done;
            next ()
        | KImod (d, a, b) ->
          let vd = bir.(d) and va = bir.(a) and vb = bir.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              let y = Array.unsafe_get vb j in
              if y = 0 then raise Division_by_zero;
              Array.unsafe_set vd j (Array.unsafe_get va j mod y)
            done;
            next ()
        | KFneg (d, a) ->
          let vd = bfr.(d) and va = bfr.(a) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j (-.(Array.unsafe_get va j))
            done;
            next ()
        | KIneg (d, a) ->
          let vd = bir.(d) and va = bir.(a) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j (-(Array.unsafe_get va j))
            done;
            next ()
        | KFabs (d, a) ->
          let vd = bfr.(d) and va = bfr.(a) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j (Float.abs (Array.unsafe_get va j))
            done;
            next ()
        | KIabs (d, a) ->
          let vd = bir.(d) and va = bir.(a) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j (abs (Array.unsafe_get va j))
            done;
            next ()
        | KSqrt (d, a) ->
          let vd = bfr.(d) and va = bfr.(a) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j (Float.sqrt (Array.unsafe_get va j))
            done;
            next ()
        | KExp (d, a) ->
          let vd = bfr.(d) and va = bfr.(a) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j (Float.exp (Array.unsafe_get va j))
            done;
            next ()
        | KLog (d, a) ->
          let vd = bfr.(d) and va = bfr.(a) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j (Float.log (Array.unsafe_get va j))
            done;
            next ()
        | KPow (d, a, b) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                (Array.unsafe_get va j ** Array.unsafe_get vb j)
            done;
            next ()
        | KFmin (d, a, b) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              let x = Array.unsafe_get va j and y = Array.unsafe_get vb j in
              Array.unsafe_set vd j (if x <= y then x else y)
            done;
            next ()
        | KFmax (d, a, b) ->
          let vd = bfr.(d) and va = bfr.(a) and vb = bfr.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              let x = Array.unsafe_get va j and y = Array.unsafe_get vb j in
              Array.unsafe_set vd j (if x >= y then x else y)
            done;
            next ()
        | KImin (d, a, b) ->
          let vd = bir.(d) and va = bir.(a) and vb = bir.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              let x = Array.unsafe_get va j and y = Array.unsafe_get vb j in
              Array.unsafe_set vd j
                (if float_of_int x <= float_of_int y then x else y)
            done;
            next ()
        | KImax (d, a, b) ->
          let vd = bir.(d) and va = bir.(a) and vb = bir.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              let x = Array.unsafe_get va j and y = Array.unsafe_get vb j in
              Array.unsafe_set vd j
                (if float_of_int x >= float_of_int y then x else y)
            done;
            next ()
        | KI2F (d, a) ->
          let vd = bfr.(d) and va = bir.(a) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j (float_of_int (Array.unsafe_get va j))
            done;
            next ()
        | KFcmp (c, d, a, b) ->
          let vd = bir.(d) and va = bfr.(a) and vb = bfr.(b) in
          (match c with
           | Ceq ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if Array.unsafe_get va j = Array.unsafe_get vb j then 1
                    else 0)
               done;
               next ()
           | Cne ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if Array.unsafe_get va j <> Array.unsafe_get vb j then 1
                    else 0)
               done;
               next ()
           | Clt ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if Array.unsafe_get va j < Array.unsafe_get vb j then 1
                    else 0)
               done;
               next ()
           | Cle ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if Array.unsafe_get va j <= Array.unsafe_get vb j then 1
                    else 0)
               done;
               next ()
           | Cgt ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if Array.unsafe_get va j > Array.unsafe_get vb j then 1
                    else 0)
               done;
               next ()
           | Cge ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if Array.unsafe_get va j >= Array.unsafe_get vb j then 1
                    else 0)
               done;
               next ())
        | KIcmp (c, d, a, b) ->
          (* One closure per comparison, as in {!build_thread}: a shared
             [fcmp c] call would box both float operands per lane. *)
          let vd = bir.(d) and va = bir.(a) and vb = bir.(b) in
          (match c with
           | Ceq ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if
                      float_of_int (Array.unsafe_get va j)
                      = float_of_int (Array.unsafe_get vb j)
                    then 1
                    else 0)
               done;
               next ()
           | Cne ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if
                      float_of_int (Array.unsafe_get va j)
                      <> float_of_int (Array.unsafe_get vb j)
                    then 1
                    else 0)
               done;
               next ()
           | Clt ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if
                      float_of_int (Array.unsafe_get va j)
                      < float_of_int (Array.unsafe_get vb j)
                    then 1
                    else 0)
               done;
               next ()
           | Cle ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if
                      float_of_int (Array.unsafe_get va j)
                      <= float_of_int (Array.unsafe_get vb j)
                    then 1
                    else 0)
               done;
               next ()
           | Cgt ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if
                      float_of_int (Array.unsafe_get va j)
                      > float_of_int (Array.unsafe_get vb j)
                    then 1
                    else 0)
               done;
               next ()
           | Cge ->
             fun () ->
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (if
                      float_of_int (Array.unsafe_get va j)
                      >= float_of_int (Array.unsafe_get vb j)
                    then 1
                    else 0)
               done;
               next ())
        | KBnot (d, a) ->
          let vd = bir.(d) and va = bir.(a) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j (1 - Array.unsafe_get va j)
            done;
            next ()
        | KFsel (d, c, a, b) ->
          let vd = bfr.(d) and vc = bir.(c) and va = bfr.(a)
          and vb = bfr.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                (if Array.unsafe_get vc j <> 0 then Array.unsafe_get va j
                 else Array.unsafe_get vb j)
            done;
            next ()
        | KIsel (d, c, a, b) ->
          let vd = bir.(d) and vc = bir.(c) and va = bir.(a)
          and vb = bir.(b) in
          fun () ->
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j
                (if Array.unsafe_get vc j <> 0 then Array.unsafe_get va j
                 else Array.unsafe_get vb j)
            done;
            next ()
        | KFmov (d, a) ->
          let vd = bfr.(d) and va = bfr.(a) in
          fun () ->
            Array.blit va 0 vd 0 (Array.unsafe_get blen 0);
            next ()
        | KImov (d, a) ->
          let vd = bir.(d) and va = bir.(a) in
          let one = not fullneed.(d) in
          fun () ->
            Array.blit va 0 vd 0
              (if one then 1 else Array.unsafe_get blen 0);
            next ()
        | KLoadC (d, ar, off) ->
          let vd = bfr.(d) in
          fun () ->
            let x = Array.unsafe_get (Array.unsafe_get bk.acap ar) off in
            for j = 0 to Array.unsafe_get blen 0 - 1 do
              Array.unsafe_set vd j x
            done;
            next ()
        | KLoad1 (d, ar, base, r, _) ->
          (* Affine index: the per-lane offsets form an arithmetic
             sequence from the lane-0 offset — unit step here (the
             folded dimension has stride 1), so ramps copy with
             [Array.blit] and uniforms broadcast one cell. *)
          let vd = bfr.(d) and vr = bir.(r) in
          (match cls.(r) with
           | BRamp ->
             fun () ->
               let a = Array.unsafe_get bk.acap ar in
               Array.blit a
                 (base + Array.unsafe_get vr 0)
                 vd 0
                 (Array.unsafe_get blen 0);
               next ()
           | BUnif ->
             fun () ->
               let a = Array.unsafe_get bk.acap ar in
               let x = Array.unsafe_get a (base + Array.unsafe_get vr 0) in
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j x
               done;
               next ()
           | BOther ->
             fun () ->
               let a = Array.unsafe_get bk.acap ar in
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (Array.unsafe_get a (base + Array.unsafe_get vr j))
               done;
               next ())
        | KLoad2 (d, ar, base, r0, _, s0, r1, _, s1) ->
          let vd = bfr.(d) and v0 = bir.(r0) and v1 = bir.(r1) in
          (match (cls.(r0), cls.(r1)) with
           | (BUnif | BRamp), (BUnif | BRamp) ->
             let step =
               (match cls.(r0) with BRamp -> s0 | _ -> 0)
               + (match cls.(r1) with BRamp -> s1 | _ -> 0)
             in
             if step = 1 then
               fun () ->
                 let a = Array.unsafe_get bk.acap ar in
                 Array.blit a
                   (base
                   + (Array.unsafe_get v0 0 * s0)
                   + (Array.unsafe_get v1 0 * s1))
                   vd 0
                   (Array.unsafe_get blen 0);
                 next ()
             else if step = 0 then
               fun () ->
                 let a = Array.unsafe_get bk.acap ar in
                 let x =
                   Array.unsafe_get a
                     (base
                     + (Array.unsafe_get v0 0 * s0)
                     + (Array.unsafe_get v1 0 * s1))
                 in
                 for j = 0 to Array.unsafe_get blen 0 - 1 do
                   Array.unsafe_set vd j x
                 done;
                 next ()
             else
               fun () ->
                 let a = Array.unsafe_get bk.acap ar in
                 let off =
                   ref
                     (base
                     + (Array.unsafe_get v0 0 * s0)
                     + (Array.unsafe_get v1 0 * s1))
                 in
                 for j = 0 to Array.unsafe_get blen 0 - 1 do
                   Array.unsafe_set vd j (Array.unsafe_get a !off);
                   off := !off + step
                 done;
                 next ()
           | BUnif, BOther when s1 = 1 ->
             (* Uniform row, gathered unit-stride column (the clamped
                indices of boundary paddings): hoist the row offset and
                gather with a single add per lane. *)
             fun () ->
               let a = Array.unsafe_get bk.acap ar in
               let b0 = base + (Array.unsafe_get v0 0 * s0) in
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (Array.unsafe_get a (b0 + Array.unsafe_get v1 j))
               done;
               next ()
           | _ ->
             fun () ->
               let a = Array.unsafe_get bk.acap ar in
               for j = 0 to Array.unsafe_get blen 0 - 1 do
                 Array.unsafe_set vd j
                   (Array.unsafe_get a
                      (base
                      + (Array.unsafe_get v0 j * s0)
                      + (Array.unsafe_get v1 j * s1)))
               done;
               next ())
        | KLoad (d, ar, base, dyn) ->
          let vd = bfr.(d) in
          let regs = Array.map (fun (r, _, _) -> bir.(r)) dyn in
          let strd = Array.map (fun (_, _, s) -> s) dyn in
          let nd = Array.length dyn in
          if Array.for_all (fun (r, _, _) -> cls.(r) <> BOther) dyn then begin
            let step = ref 0 in
            Array.iter
              (fun (r, _, s) -> if cls.(r) = BRamp then step := !step + s)
              dyn;
            let step = !step in
            fun () ->
              let a = Array.unsafe_get bk.acap ar in
              let off = ref base in
              for p = 0 to nd - 1 do
                off :=
                  !off
                  + (Array.unsafe_get (Array.unsafe_get regs p) 0
                     * Array.unsafe_get strd p)
              done;
              if step = 1 then
                Array.blit a !off vd 0 (Array.unsafe_get blen 0)
              else begin
                for j = 0 to Array.unsafe_get blen 0 - 1 do
                  Array.unsafe_set vd j (Array.unsafe_get a !off);
                  off := !off + step
                done
              end;
              next ()
          end
          else
            fun () ->
              let a = Array.unsafe_get bk.acap ar in
              for j = 0 to Array.unsafe_get blen 0 - 1 do
                let off = ref base in
                for p = 0 to nd - 1 do
                  off :=
                    !off
                    + (Array.unsafe_get (Array.unsafe_get regs p) j
                       * Array.unsafe_get strd p)
                done;
                Array.unsafe_set vd j (Array.unsafe_get a !off)
              done;
              next ()
        | KLoadIvC (d, v, pos) ->
          let vd = bir.(d) in
          let one = not fullneed.(d) in
          fun () ->
            let x = Array.unsafe_get (Array.unsafe_get bk.ivcap v) pos in
            let n = if one then 1 else Array.unsafe_get blen 0 in
            for j = 0 to n - 1 do
              Array.unsafe_set vd j x
            done;
            next ()
        | KJmp _ | KJz _ | KJnz _ | KIvD _ | KLoadIv _ ->
          (* excluded by [batchable] *)
          assert false
      in
      t.(i) <- step
    done;
    t.(0)
  end

(* ---------------- contexts and kernel caches --------------------- *)

(* Per-lane kernel state: register files, the current index vector and
   its row-major offset, maintained incrementally while a walk steps
   its odometer; [kgen] says which with-loop execution the invariant
   prefix last ran for. *)
type klane = {
  kfr : float array;
  kir : int array;
  kidx : int array;
  mutable koff : int;
  mutable kgen : int;
  mutable kmemf : float array;
      (* column memo: ncols x |klive_f| saved column live-outs *)
  mutable kmemi : int array;
  tpre : unit -> unit;            (* threaded kpre/kcol/kcode *)
  tcol : unit -> unit;
  tcode : unit -> unit;
  tcol_u : unit -> unit;
      (* unchecked-load variants, selected per execution when the
         kernel's [kguards] hold for the actual bounds *)
  tcode_u : unit -> unit;
  mutable kbatch : bstate option;
      (* strip-compiled blocks, built on first use; [kbtried] records
         a kernel whose blocks are not batchable *)
  mutable kbtried : bool;
}

(* One cache entry per distinct capture signature of a descriptor. *)
type centry = {
  ckey : int array;
  ck : kernel option;             (* None: body is generic-only *)
  cbanks : banks;
  clanes : klane option array;
}

(* One lane's batched register vectors, shared by every kernel the
   lane runs: kernel [k] uses the first [knf]/[kni] of them.  A lane
   runs one kernel walk at a time and every batched walk seeds what it
   reads (the prefix broadcast, then each block writes before it
   reads), so nothing leaks between kernels.  The pool only grows: the
   threaded batch closures capture its vectors, so a vector, once
   handed out, is never replaced. *)
type strips = {
  mutable sfr : float array array;
  mutable sir : int array array;
}

type ctx = {
  bc : B.program;
  st : Eval.stats;
  exec : Parallel.Exec.t option;
  parallel_threshold : int;
  kernels : bool;
  kcaches : centry list ref array;  (* indexed by w_id *)
  (* Statistics.  Generic bodies run inside parallel lanes, and a body
     may execute nested with-loops and function calls, so every count
     such a body can reach is an atomic; {!stats} flushes them into
     [st].  Indexed counters also spare the hot path a string-keyed
     Hashtbl update. *)
  wexecs : int Atomic.t array;    (* with-executions, by w_id *)
  fexecs : int Atomic.t array;    (* fold subset, same scheme *)
  fcalls : int Atomic.t array;    (* calls, by function index *)
  loops : int Atomic.t;           (* with-loops and builtin array ops *)
  elems : int Atomic.t;           (* their element counts *)
  nlanes : int;
  strips : strips array;          (* by lane *)
  (* Only the orchestrating domain reaches these: [get_kernel] refuses
     calls from inside a parallel region, and [full_buffer] leaves the
     pool alone there. *)
  mutable wgen : int;             (* with-execution counter *)
  mutable kfolds : int;           (* fold executions on the kernel path *)
  mutable pool : float array list;
      (* dead full-cover result buffers, reused by later calls *)
  mutable taken : float array list;
      (* full-cover result buffers of the running [run_fun] call *)
}

(* At most this many buffers are tracked per call and pooled: a Sod
   step takes 9, and a long call (a whole [run]) retains no more than
   this many of its dead results until it returns. *)
let pool_cap = 16

let make_ctx ?exec ?(parallel_threshold = 1024) ?(kernels = true) bc =
  List.iter
    (fun f ->
      if List.mem f.fname Builtins.names then
        raise (Eval.Error ("function redefines builtin: " ^ f.fname)))
    bc.B.source;
  let nlanes =
    match exec with Some e -> Parallel.Exec.lanes e | None -> 1
  in
  { bc;
    st = Eval.fresh_stats ();
    exec;
    parallel_threshold;
    kernels;
    kcaches = Array.init (Array.length bc.B.withs) (fun _ -> ref []);
    wexecs = Array.init (Array.length bc.B.withs) (fun _ -> Atomic.make 0);
    fexecs = Array.init (Array.length bc.B.withs) (fun _ -> Atomic.make 0);
    fcalls = Array.init (Array.length bc.B.funcs) (fun _ -> Atomic.make 0);
    loops = Atomic.make 0;
    elems = Atomic.make 0;
    nlanes;
    strips = Array.init nlanes (fun _ -> { sfr = [||]; sir = [||] });
    wgen = 0;
    kfolds = 0;
    pool = [];
    taken = [] }

(* Flush the counters into [st] (and zero them, so repeated calls
   keep accumulating correctly).  [flush] returns the total it moved. *)
let stats ctx =
  let st = ctx.st in
  let flush counts name tbl =
    let total = ref 0 in
    Array.iteri
      (fun i c ->
        let n = Atomic.exchange c 0 in
        if n > 0 then begin
          let k = name i in
          (match Hashtbl.find_opt tbl k with
           | Some m -> Hashtbl.replace tbl k (m + n)
           | None -> Hashtbl.add tbl k n);
          total := !total + n
        end)
      counts;
    !total
  in
  let w_fun w = ctx.bc.B.withs.(w).B.w_fun in
  ignore (flush ctx.wexecs w_fun st.Eval.with_execs);
  ignore (flush ctx.fexecs w_fun st.Eval.fold_execs);
  st.Eval.calls <-
    st.Eval.calls
    + flush ctx.fcalls (fun f -> ctx.bc.B.funcs.(f).B.f_name)
        st.Eval.fun_calls;
  st.Eval.with_loops <- st.Eval.with_loops + Atomic.exchange ctx.loops 0;
  st.Eval.elements <- st.Eval.elements + Atomic.exchange ctx.elems 0;
  st
let fold_kernel_execs ctx = ctx.kfolds

let note ctx n =
  Atomic.incr ctx.loops;
  ignore (Atomic.fetch_and_add ctx.elems n)

(* Cache key: frame rank, then each capture's kind (and shape — load
   offsets and strides are baked into the kernel). *)
let entry_key w frame rank =
  let key = ref [ rank ] in
  Array.iter
    (fun slot ->
      match frame.(slot) with
      | Value.Vdbl _ -> key := 1 :: !key
      | Value.Vint _ -> key := 2 :: !key
      | Value.Vbool _ -> key := 3 :: !key
      | Value.Vivec v -> key := Array.length v :: 4 :: !key
      | Value.Vdarr t ->
        key := 5 :: !key;
        let shp = Tensor.Nd.shape t in
        key := Array.length shp :: !key;
        Array.iter (fun d -> key := d :: !key) shp)
    w.B.w_captures;
  Array.of_list (List.rev !key)

let make_entry ctx w frame rank key =
  let caps = Hashtbl.create 16 in
  let nf = ref 0 and ni = ref 0 and na = ref 0 and nv = ref 0 in
  Array.iteri
    (fun j slot ->
      let name = w.B.w_capture_names.(j) in
      match frame.(slot) with
      | Value.Vdbl _ ->
        Hashtbl.replace caps name (CF !nf);
        incr nf
      | Value.Vint _ ->
        Hashtbl.replace caps name (CI !ni);
        incr ni
      | Value.Vbool _ ->
        Hashtbl.replace caps name (CB !ni);
        incr ni
      | Value.Vivec v ->
        Hashtbl.replace caps name (CIv (!nv, Array.length v));
        incr nv
      | Value.Vdarr t ->
        Hashtbl.replace caps name
          (CArr (!na, Array.copy (Tensor.Nd.shape t)));
        incr na)
    w.B.w_captures;
  { ckey = key;
    ck = compile_kernel ctx.bc.B.source w rank caps;
    cbanks =
      { fcap = Array.make (max 1 !nf) 0.0;
        icap = Array.make (max 1 !ni) 0;
        acap = Array.make (max 1 !na) [||];
        ivcap = Array.make (max 1 !nv) [||] };
    clanes = Array.make ctx.nlanes None }

(* Copy the current capture values into the entry's banks (same
   kind-bucket order as [make_entry]). *)
let fill_banks b w frame =
  let nf = ref 0 and ni = ref 0 and na = ref 0 and nv = ref 0 in
  Array.iter
    (fun slot ->
      match frame.(slot) with
      | Value.Vdbl x ->
        b.fcap.(!nf) <- x;
        incr nf
      | Value.Vint n ->
        b.icap.(!ni) <- n;
        incr ni
      | Value.Vbool bl ->
        b.icap.(!ni) <- (if bl then 1 else 0);
        incr ni
      | Value.Vivec v ->
        b.ivcap.(!nv) <- v;
        incr nv
      | Value.Vdarr t ->
        b.acap.(!na) <- t.Tensor.Nd.data;
        incr na)
    w.B.w_captures

(* Does the cached key match the current captures?  Mirrors
   [entry_key]'s layout without allocating — this runs on every
   with-loop execution. *)
let key_matches key w frame rank =
  let pos = ref 1 in
  let n = Array.length key in
  let ok = ref (n > 0 && key.(0) = rank) in
  let take v =
    if !ok then
      if !pos < n && Array.unsafe_get key !pos = v then incr pos
      else ok := false
  in
  Array.iter
    (fun slot ->
      if !ok then
        match frame.(slot) with
        | Value.Vdbl _ -> take 1
        | Value.Vint _ -> take 2
        | Value.Vbool _ -> take 3
        | Value.Vivec v ->
          take 4;
          take (Array.length v)
        | Value.Vdarr t ->
          take 5;
          let shp = Tensor.Nd.shape t in
          take (Array.length shp);
          Array.iter take shp)
    w.B.w_captures;
  !ok && !pos = n

(* The kernel specialised to the current capture kinds, or [None] when
   the body is generic-only, kernels are off, or we are already inside
   a parallel region (nested loops would race on the shared banks). *)
let get_kernel ctx ~par w frame rank =
  if (not ctx.kernels) || par then None
  else begin
    let cache = ctx.kcaches.(w.B.w_id) in
    let entry =
      match
        List.find_opt (fun e -> key_matches e.ckey w frame rank) !cache
      with
      | Some e -> e
      | None ->
        let e = make_entry ctx w frame rank (entry_key w frame rank) in
        cache := e :: !cache;
        e
    in
    match entry.ck with
    | None -> None
    | Some k ->
      fill_banks entry.cbanks w frame;
      ctx.wgen <- ctx.wgen + 1;
      Some (k, entry)
  end

let lane_state ctx entry k rank lane =
  match entry.clanes.(lane) with
  | Some st ->
    if st.kgen <> ctx.wgen then begin
      st.tpre ();
      st.kgen <- ctx.wgen
    end;
    st
  | None ->
    let kfr = Array.make k.knf 0.0 in
    let kir = Array.make k.kni 0 in
    let kidx = Array.make rank 0 in
    let bk = entry.cbanks in
    let tcol = build_thread k.kcol kfr kir kidx bk in
    let tcode = build_thread k.kcode kfr kir kidx bk in
    let tcol_u, tcode_u =
      match k.kguards with
      | None -> (tcol, tcode)
      | Some _ ->
        ( build_thread ~unchecked:true k.kcol kfr kir kidx bk,
          build_thread ~unchecked:true k.kcode kfr kir kidx bk )
    in
    let st =
      { kfr;
        kir;
        kidx;
        koff = 0;
        kgen = ctx.wgen;
        kmemf = [||];
        kmemi = [||];
        tpre = build_thread k.kpre kfr kir kidx bk;
        tcol;
        tcode;
        tcol_u;
        tcode_u;
        kbatch = None;
        kbtried = false }
    in
    st.tpre ();
    entry.clanes.(lane) <- Some st;
    st

(* The first [nf] float and [ni] int vectors of a lane's strip pool,
   growing it on demand. *)
let strip_regs pool nf ni =
  let grow a n mk =
    let m = Array.length a in
    if m >= n then a else Array.append a (Array.init (n - m) mk)
  in
  pool.sfr <- grow pool.sfr nf (fun _ -> Array.make batch_width 0.0);
  pool.sir <- grow pool.sir ni (fun _ -> Array.make batch_width 0);
  (Array.sub pool.sfr 0 nf, Array.sub pool.sir 0 ni)

(* The lane's strip-compiled blocks, built on first demand.  The ramp
   is always the innermost dimension: every batched walk strips along
   it. *)
let batch_state ctx ~lane k st rank bk =
  match st.kbatch with
  | Some _ as s -> s
  | None ->
    if st.kbtried then None
    else begin
      st.kbtried <- true;
      if batchable k.kcol then begin
        let code_ok = batchable k.kcode in
        let bfr, bir = strip_regs ctx.strips.(lane) k.knf k.kni in
        let bstart = Array.make 1 0 in
        let blen = Array.make 1 0 in
        let ramp = rank - 1 in
        let bpre_f, bpre_i = kdests k.kpre in
        (* Lane-shape analysis: prefix results are uniform (the seed
           broadcasts them), then one forward pass over the executed
           blocks; the backward pass trims index bookkeeping that only
           specialised loads (lane 0) consume. *)
        let cls = Array.make k.kni BOther in
        Array.iter (fun d -> cls.(d) <- BUnif) bpre_i;
        classify_block cls ramp k.kcol;
        if code_ok then classify_block cls ramp k.kcode;
        let fullneed = Array.make k.kni false in
        if code_ok then mark_fullneed cls fullneed k.kcode;
        mark_fullneed cls fullneed k.kcol;
        let bs =
          { bfr;
            bir;
            bstart;
            blen;
            btcol =
              build_batch ~ramp ~cls ~fullneed k.kcol bfr bir st.kidx bk
                bstart blen;
            btcode =
              (if code_ok then
                 build_batch ~ramp ~cls ~fullneed k.kcode bfr bir st.kidx
                   bk bstart blen
               else fun () -> ());
            bcode_ok = code_ok;
            bpre_f;
            bpre_i }
        in
        st.kbatch <- Some bs;
        st.kbatch
      end
      else None
    end

(* Broadcast the invariant prefix's results (computed by the scalar
   [tpre] at lane refresh) into the batched register files.  Runs once
   per with-loop execution, before the first strip. *)
let seed_batch bs st =
  let fs = bs.bpre_f in
  for p = 0 to Array.length fs - 1 do
    let d = Array.unsafe_get fs p in
    Array.fill bs.bfr.(d) 0 batch_width st.kfr.(d)
  done;
  let is_ = bs.bpre_i in
  for p = 0 to Array.length is_ - 1 do
    let d = Array.unsafe_get is_ p in
    Array.fill bs.bir.(d) 0 batch_width st.kir.(d)
  done

(* Put [kidx]/[koff] on the first position of the box [l, u). *)
let start_odometer st l strides =
  Array.blit l 0 st.kidx 0 (Array.length l);
  st.koff <- offset_of st.kidx strides

(* Advance [kidx]/[koff] to the next row-major position of [l, u)
   whose dimensions after [top] are unchanged. *)
let bump_odometer st top l u strides =
  let d = ref top in
  let continue_ = ref true in
  while !continue_ do
    let dd = !d in
    let x = st.kidx.(dd) + 1 in
    if x < u.(dd) then begin
      st.kidx.(dd) <- x;
      st.koff <- st.koff + strides.(dd);
      continue_ := false
    end
    else begin
      st.koff <- st.koff - ((u.(dd) - 1 - l.(dd)) * strides.(dd));
      st.kidx.(dd) <- l.(dd);
      decr d
    end
  done

(* Grow the lane's column-memo scratch to [ncols] columns. *)
let ensure_memo k st ncols =
  let nf = ncols * Array.length k.klive_f in
  if Array.length st.kmemf < nf then st.kmemf <- Array.make nf 0.0;
  let ni = ncols * Array.length k.klive_i in
  if Array.length st.kmemi < ni then st.kmemi <- Array.make ni 0

(* On the first row ([first]), run the column block and save its
   live-outs at column [c]; on later rows, replay them.  Row-major
   order walks the innermost dimension fastest, so a sequential fill
   visits every column once before any repeats. *)
let col_step k st tcol c ~first =
  let nlf = Array.length k.klive_f in
  let nli = Array.length k.klive_i in
  if first then begin
    tcol ();
    let bf = c * nlf in
    for j = 0 to nlf - 1 do
      Array.unsafe_set st.kmemf (bf + j)
        (Array.unsafe_get st.kfr (Array.unsafe_get k.klive_f j))
    done;
    let bi = c * nli in
    for j = 0 to nli - 1 do
      Array.unsafe_set st.kmemi (bi + j)
        (Array.unsafe_get st.kir (Array.unsafe_get k.klive_i j))
    done
  end
  else begin
    let bf = c * nlf in
    for j = 0 to nlf - 1 do
      Array.unsafe_set st.kfr (Array.unsafe_get k.klive_f j)
        (Array.unsafe_get st.kmemf (bf + j))
    done;
    let bi = c * nli in
    for j = 0 to nli - 1 do
      Array.unsafe_set st.kir (Array.unsafe_get k.klive_i j)
        (Array.unsafe_get st.kmemi (bi + j))
    done
  end

(* Do the kernel's load guards hold over the bounds [l, u)?  Callers
   only ask for non-empty ranges, where [u.(d) - 1] is the largest
   index in dimension [d]. *)
let guards_hold k kir l u =
  match k.kguards with
  | None -> false
  | Some gs ->
    let lo_val = function
      | GC c -> c
      | GR (r, o) -> kir.(r) + o
      | GIv (d, o) -> l.(d) + o
    in
    let hi_val = function
      | GC c -> c
      | GR (r, o) -> kir.(r) + o
      | GIv (d, o) -> u.(d) - 1 + o
    in
    Array.for_all
      (function
        | Glo alts ->
          List.exists (List.for_all (fun b -> lo_val b >= 0)) alts
        | Ghi (ext, alts) ->
          List.exists (List.for_all (fun b -> hi_val b < ext)) alts)
      gs

(* The lane split of a parallel with-loop over the non-empty [l, u):
   [parts = min lanes extent] contiguous boxes cutting its widest
   dimension, and [box which], the [which]-th of them.  Each lane runs
   the sequential walk on its own box.  The widest dimension, not
   dimension 0: a [3, n] fill cut on rows would leave two lanes 2:1
   unbalanced. *)
let lane_split exec l u =
  let d = ref 0 in
  Array.iteri (fun i li -> if u.(i) - li > u.(!d) - l.(!d) then d := i) l;
  let d = !d in
  let parts = min (Parallel.Exec.lanes exec) (u.(d) - l.(d)) in
  let box which =
    let r = Parallel.Chunk.chunk_of ~lo:l.(d) ~hi:u.(d) ~parts ~which in
    let bl = Array.copy l and bu = Array.copy u in
    bl.(d) <- r.Parallel.Chunk.lo;
    bu.(d) <- r.Parallel.Chunk.hi;
    (bl, bu)
  in
  (parts, box)

(* Fill the non-empty box [l, u) of [data] on lane [lane]'s state. *)
let fill_walk ctx k entry ~lane data strides l u =
  let rank = Array.length l in
  let count = frame_size l u in
  let st = lane_state ctx entry k rank lane in
  let elide = guards_hold k st.kir l u in
  match
    if elide && rank <= 2 then batch_state ctx ~lane k st rank entry.cbanks
    else None
  with
  | Some bs when bs.bcode_ok ->
    (* Strip-batched walk: one instruction dispatch covers up to
       [batch_width] elements of the innermost dimension.  For
       rank 2 the column block runs batched once per strip — each
       lane holds its own column's values, so every row of the
       strip reads them as vectors. *)
    seed_batch bs st;
    let bout = bs.bfr.(k.kout) in
    let bstart = bs.bstart and blen = bs.blen in
    (if rank = 1 then begin
       let s0 = strides.(0) in
       let lo = l.(0) and hi = u.(0) in
       let s = ref lo in
       while !s < hi do
         let len = min batch_width (hi - !s) in
         bstart.(0) <- !s;
         blen.(0) <- len;
         bs.btcode ();
         if s0 = 1 then Array.blit bout 0 data !s len
         else begin
           let off = ref (!s * s0) in
           for j = 0 to len - 1 do
             Array.unsafe_set data !off (Array.unsafe_get bout j);
             off := !off + s0
           done
         end;
         s := !s + len
       done
     end
     else begin
       let s0 = strides.(0) and s1 = strides.(1) in
       let kidx = st.kidx in
       let l1 = l.(1) and u1 = u.(1) in
       let has_col = Array.length k.kcol > 0 in
       let s = ref l1 in
       while !s < u1 do
         let len = min batch_width (u1 - !s) in
         bstart.(0) <- !s;
         blen.(0) <- len;
         if has_col then bs.btcol ();
         for r = l.(0) to u.(0) - 1 do
           Array.unsafe_set kidx 0 r;
           bs.btcode ();
           if s1 = 1 then Array.blit bout 0 data ((r * s0) + !s) len
           else begin
             let off = ref ((r * s0) + (!s * s1)) in
             for j = 0 to len - 1 do
               Array.unsafe_set data !off (Array.unsafe_get bout j);
               off := !off + s1
             done
           end
         done;
         s := !s + len
       done
     end)
  | _ ->
    let tcode = if elide then st.tcode_u else st.tcode in
    if Array.length k.kcol = 0 then begin
      (match rank with
       | 1 ->
         (* Dense low-rank walks: drive the index registers with
            plain nested loops instead of the per-element odometer
            closure — same visit order, same offsets, just no
            flat-index bookkeeping. *)
         let kidx = st.kidx and kfr = st.kfr in
         let out = k.kout and s0 = strides.(0) in
         let lo = l.(0) and hi = u.(0) - 1 in
         let off = ref (l.(0) * s0) in
         for i = lo to hi do
           Array.unsafe_set kidx 0 i;
           tcode ();
           Array.unsafe_set data !off (Array.unsafe_get kfr out);
           off := !off + s0
         done
       | 2 ->
         let kidx = st.kidx and kfr = st.kfr in
         let out = k.kout in
         let s0 = strides.(0) and s1 = strides.(1) in
         let l1 = l.(1) and hi1 = u.(1) - 1 in
         for r = l.(0) to u.(0) - 1 do
           Array.unsafe_set kidx 0 r;
           let off = ref ((r * s0) + (l1 * s1)) in
           for c = l1 to hi1 do
             Array.unsafe_set kidx 1 c;
             tcode ();
             Array.unsafe_set data !off (Array.unsafe_get kfr out);
             off := !off + s1
           done
         done
       | _ ->
         for flat = 0 to count - 1 do
           if flat = 0 then start_odometer st l strides
           else bump_odometer st (rank - 1) l u strides;
           tcode ();
           Array.unsafe_set data st.koff (Array.unsafe_get st.kfr k.kout)
         done)
    end
    else begin
      (* Column-outer walk: run the column block once per column,
         then sweep the outer dimensions with the per-element code
         while the column registers sit untouched in the register
         file.  Element values are written to the same offsets as the
         row-major walk; only the visit order — and hence which of
         several runtime errors inside the loop surfaces first —
         changes. *)
      let tcol = if elide then st.tcol_u else st.tcol in
      let last = rank - 1 in
      let ncols = u.(last) - l.(last) in
      let nrows = count / ncols in
      for jc = 0 to ncols - 1 do
        start_odometer st l strides;
        st.kidx.(last) <- l.(last) + jc;
        st.koff <- st.koff + (jc * strides.(last));
        tcol ();
        for row = 0 to nrows - 1 do
          if row > 0 then bump_odometer st (last - 1) l u strides;
          tcode ();
          Array.unsafe_set data st.koff (Array.unsafe_get st.kfr k.kout)
        done
      done
    end

let kernel_fill ctx k entry data shape l u count =
  let strides = Tensor.Shape.strides shape in
  match ctx.exec with
  | Some exec when count >= ctx.parallel_threshold ->
    let parts, box = lane_split exec l u in
    Parallel.Exec.parallel_for_lanes exec ~lo:0 ~hi:parts
      (fun ~lane which ->
        let bl, bu = box which in
        fill_walk ctx k entry ~lane data strides bl bu)
  | _ -> fill_walk ctx k entry ~lane:0 data strides l u

let fold_fn = function
  | Fsum -> ( +. )
  | Fprod -> ( *. )
  | Fmax -> Float.max
  | Fmin -> Float.min

(* Fold the non-empty box [l, u) into [init] on lane [lane]'s state,
   combining element values in row-major order. *)
let fold_walk ctx k entry ~lane op l u init =
  let rank = Array.length l in
  let st = lane_state ctx entry k rank lane in
  let elide = guards_hold k st.kir l u in
  let tcode = if elide then st.tcode_u else st.tcode in
  let acc = ref init in
  (if rank = 1 then begin
     match
       if elide then batch_state ctx ~lane k st rank entry.cbanks else None
     with
     | Some bs when bs.bcode_ok ->
       (* Strip-batched fold: compute the body for a strip of the
          range, then combine the strip's lanes in ascending index
          order — exactly the sequential walk's combine sequence, so
          the result is bitwise identical for every fold operator,
          rounding included. *)
       seed_batch bs st;
       let bout = bs.bfr.(k.kout) in
       let hi = u.(0) in
       let s = ref l.(0) in
       while !s < hi do
         let len = min batch_width (hi - !s) in
         bs.bstart.(0) <- !s;
         bs.blen.(0) <- len;
         bs.btcode ();
         (match op with
          | Fsum ->
            for j = 0 to len - 1 do
              acc := !acc +. Array.unsafe_get bout j
            done
          | Fprod ->
            for j = 0 to len - 1 do
              acc := !acc *. Array.unsafe_get bout j
            done
          | Fmax ->
            for j = 0 to len - 1 do
              acc := Float.max !acc (Array.unsafe_get bout j)
            done
          | Fmin ->
            for j = 0 to len - 1 do
              acc := Float.min !acc (Array.unsafe_get bout j)
            done);
         s := !s + len
       done
     | _ ->
       (* Dense rank-1 walk: no odometer, no column block (column
          homing needs rank >= 2), and one loop per fold op so the
          combine is a direct call — [Float.max]/[Float.min] exactly
          (NaN and signed-zero semantics), never a [>=]-select. *)
       let kidx = st.kidx and kfr = st.kfr in
       let out = k.kout in
       let lo = l.(0) and hi = u.(0) - 1 in
       (match op with
        | Fsum ->
          for i = lo to hi do
            Array.unsafe_set kidx 0 i;
            tcode ();
            acc := !acc +. Array.unsafe_get kfr out
          done
        | Fprod ->
          for i = lo to hi do
            Array.unsafe_set kidx 0 i;
            tcode ();
            acc := !acc *. Array.unsafe_get kfr out
          done
        | Fmax ->
          for i = lo to hi do
            Array.unsafe_set kidx 0 i;
            tcode ();
            acc := Float.max !acc (Array.unsafe_get kfr out)
          done
        | Fmin ->
          for i = lo to hi do
            Array.unsafe_set kidx 0 i;
            tcode ();
            acc := Float.min !acc (Array.unsafe_get kfr out)
          done)
   end
   else begin
     let f = fold_fn op in
     let strides = Array.make rank 0 in
     let has_col = Array.length k.kcol > 0 in
     let ncols = if has_col then u.(rank - 1) - l.(rank - 1) else 1 in
     if has_col then ensure_memo k st ncols;
     let tcol = if elide then st.tcol_u else st.tcol in
     let c = ref 0 in
     for flat = 0 to frame_size l u - 1 do
       if flat = 0 then start_odometer st l strides
       else bump_odometer st (rank - 1) l u strides;
       if has_col then col_step k st tcol !c ~first:(flat < ncols);
       tcode ();
       acc := f !acc (Array.unsafe_get st.kfr k.kout);
       incr c;
       if !c = ncols then c := 0
     done
   end);
  !acc

(* ---------------- result buffer recycling ------------------------ *)

(* A payload for a full-cover with-loop result, which writes every
   cell: a pooled buffer of the right length when there is one, else a
   fresh one.  On the orchestrating domain ([par = false]) the buffer
   is tracked for [recycle]; lanes never touch the pool. *)
let rec pool_take ctx size skipped = function
  | [] -> Array.create_float size
  | b :: rest when Array.length b = size ->
    ctx.pool <- List.rev_append skipped rest;
    b
  | b :: rest -> pool_take ctx size (b :: skipped) rest

let full_buffer ctx ~par size =
  if par then Array.create_float size
  else begin
    let b = pool_take ctx size [] ctx.pool in
    if List.compare_length_with ctx.taken pool_cap < 0 then
      ctx.taken <- b :: ctx.taken;
    b
  end

(* At the normal return of a top-level call, every buffer it tracked
   is dead unless it is the payload of the returned value [v]: values
   are immutable, [Value.t] has no compound variants, and views share
   their payload physically, so nothing else can still reach one.
   Those buffers go to the front of the pool, which keeps at most
   [pool_cap].  A call that raises never gets here: its buffers are
   dropped when the next call starts. *)
let recycle ctx v =
  match ctx.taken with
  | [] -> ()
  | taken ->
    let keep = match v with Value.Vdarr t -> t.Tensor.Nd.data | _ -> [||] in
    let dead = List.filter (fun b -> b != keep) taken in
    ctx.pool <- List.filteri (fun i _ -> i < pool_cap) (dead @ ctx.pool);
    ctx.taken <- []

(* ---------------- the stack machine ------------------------------ *)

let pop_args stack sp argc =
  sp := !sp - argc;
  let rec build j =
    if j = argc then [] else stack.(!sp + j) :: build (j + 1)
  in
  build 0

(* Verbatim {!Eval} indexing semantics. *)
let index_value va vi =
  match (va, vi) with
  | Value.Vdarr t, Value.Vivec iv ->
    if Array.length iv <> Tensor.Nd.rank t then
      err "index rank does not match array rank";
    (try Value.Vdbl (Tensor.Nd.get t iv)
     with Invalid_argument _ -> err "index out of bounds")
  | Value.Vdarr t, Value.Vint i when Tensor.Nd.rank t = 1 ->
    (try Value.Vdbl (Tensor.Nd.get t [| i |])
     with Invalid_argument _ -> err "index out of bounds")
  | Value.Vivec v, Value.Vint i ->
    if i < 0 || i >= Array.length v then err "index out of bounds"
    else Value.Vint v.(i)
  | Value.Vivec v, Value.Vivec [| i |] ->
    if i < 0 || i >= Array.length v then err "index out of bounds"
    else Value.Vint v.(i)
  | _ -> err "bad indexing operands"

(* A fresh frame for a with-loop body: the index vector [idx] in slot
   0, then the captures; and an operand stack. *)
let body_frame w frame rank =
  let idx = Array.make rank 0 in
  let bframe = Array.make w.B.w_body_slots (Value.Vint 0) in
  bframe.(0) <- Value.Vivec idx;
  Array.iteri (fun j slot -> bframe.(j + 1) <- frame.(slot)) w.B.w_captures;
  (idx, bframe, Array.make w.B.w_body_stack (Value.Vint 0))

let func_index ctx fd =
  let funcs = ctx.bc.B.funcs in
  let n = Array.length funcs in
  let rec go i =
    if i >= n then err ("no such function: " ^ fd.fname)
    else if funcs.(i).B.f_def == fd then i
    else go (i + 1)
  in
  go 0

let rec run_code ctx ~par fname (code : B.instr array) frame stack =
  let sp = ref 0 in
  let pc = ref 0 in
  let ret = ref (Value.Vint 0) in
  let running = ref true in
  let push v =
    stack.(!sp) <- v;
    incr sp
  in
  let pop () =
    decr sp;
    stack.(!sp)
  in
  while !running do
    match Array.unsafe_get code !pc with
    | B.Const k ->
      push (Array.unsafe_get ctx.bc.B.consts k);
      incr pc
    | B.Load s ->
      push frame.(s);
      incr pc
    | B.Store s ->
      frame.(s) <- pop ();
      incr pc
    | B.Jump t -> pc := t
    | B.JumpIfFalse t ->
      if Value.to_bool (pop ()) then incr pc else pc := t
    | B.AndJump t -> (
      match stack.(!sp - 1) with
      | Value.Vbool false -> pc := t
      | _ -> incr pc)
    | B.OrJump t -> (
      match stack.(!sp - 1) with
      | Value.Vbool true -> pc := t
      | _ -> incr pc)
    | B.Bin op ->
      let b = pop () in
      let a = pop () in
      push (Builtins.arith ~note:(note ctx) op a b);
      incr pc
    | B.LoadLoadBin (a, b, op) ->
      push (Builtins.arith ~note:(note ctx) op frame.(a) frame.(b));
      incr pc
    | B.LoadConstBin (s, k, op) ->
      push
        (Builtins.arith ~note:(note ctx) op frame.(s)
           (Array.unsafe_get ctx.bc.B.consts k));
      incr pc
    | B.Un op ->
      let a = pop () in
      push (Builtins.unary ~note:(note ctx) op a);
      incr pc
    | B.MakeVec n ->
      sp := !sp - n;
      let vs = ref [] in
      for j = n - 1 downto 0 do
        vs := stack.(!sp + j) :: !vs
      done;
      let vs = !vs in
      push
        (if
           List.for_all
             (function Value.Vint _ -> true | _ -> false)
             vs
         then Value.Vivec (Array.of_list (List.map Value.to_int vs))
         else
           Value.Vdarr
             (Tensor.Nd.of_list1 (List.map Value.to_float vs)));
      incr pc
    | B.Index ->
      let vi = pop () in
      let va = pop () in
      push (index_value va vi);
      incr pc
    | B.CallStatic (fi, argc) ->
      let args = pop_args stack sp argc in
      let f = ctx.bc.B.funcs.(fi) in
      let ok =
        List.for_all2
          (fun a p -> Overload.arg_ok (Eval.ty_of_value a) p.pty)
          args f.B.f_def.params
      in
      (if ok then push (call_fn ctx ~par fi args)
       else
         match
           Overload.resolve ctx.bc.B.source f.B.f_name
             (List.map Eval.ty_of_value args)
         with
         | Ok fd -> push (call_fn ctx ~par (func_index ctx fd) args)
         | Error msg -> err msg);
      incr pc
    | B.CallDyn (k, argc) ->
      let args = pop_args stack sp argc in
      let name = ctx.bc.B.names.(k) in
      (match
         Overload.resolve ctx.bc.B.source name
           (List.map Eval.ty_of_value args)
       with
       | Ok fd -> push (call_fn ctx ~par (func_index ctx fd) args)
       | Error msg -> err msg);
      incr pc
    | B.CallBuiltin (k, argc) ->
      let args = pop_args stack sp argc in
      let name = ctx.bc.B.names.(k) in
      (match Builtins.call ~note:(note ctx) name args with
       | Some v -> push v
       | None -> err ("unknown function " ^ name));
      incr pc
    | B.With wi ->
      let w = ctx.bc.B.withs.(wi) in
      (match w.B.w_gen with
       | B.Wgenarray ->
         let dflt = pop () in
         let shp = pop () in
         let ub = pop () in
         let lb = pop () in
         push (exec_genarray ctx ~par w frame lb ub shp dflt)
       | B.Wmodarray ->
         let src = pop () in
         let ub = pop () in
         let lb = pop () in
         push (exec_modarray ctx ~par w frame lb ub src)
       | B.Wfold op ->
         let neutral = pop () in
         let ub = pop () in
         let lb = pop () in
         push (exec_fold ctx ~par w frame op lb ub neutral));
      incr pc
    | B.Ret ->
      ret := pop ();
      running := false
    | B.NoRet -> err (fname ^ " finished without return")
  done;
  !ret

and call_fn ctx ~par fi args =
  let f = ctx.bc.B.funcs.(fi) in
  let n = List.length args in
  if n <> f.B.f_params then
    err
      (Printf.sprintf "%s expects %d arguments, got %d" f.B.f_name
         f.B.f_params n);
  Atomic.incr ctx.fcalls.(fi);
  let frame = Array.make f.B.f_slots (Value.Vint 0) in
  List.iteri (fun j v -> frame.(j) <- v) args;
  let stack = Array.make f.B.f_stack (Value.Vint 0) in
  run_code ctx ~par f.B.f_name f.B.f_code frame stack

and exec_genarray ctx ~par w frame lb ub shp dflt =
  Atomic.incr ctx.wexecs.(w.B.w_id);
  let l, u = frame_of lb ub in
  let count = frame_size l u in
  note ctx count;
  let shape = Value.to_ivec shp in
  if Array.length shape <> Array.length l then
    err "genarray shape rank does not match with-loop bounds";
  Array.iteri
    (fun d ext ->
      if l.(d) < 0 || u.(d) > ext then
        err "with-loop partition exceeds genarray shape")
    shape;
  let dv = Value.to_float dflt in
  let size = Tensor.Shape.size shape in
  (* count = size forces l = 0 and u = ext in every dimension (each
     factor of the product is <= its extent), so the fill writes every
     cell and the default initialisation would be dead stores. *)
  let data =
    if count = size && count > 0 then full_buffer ctx ~par size
    else Array.make size dv
  in
  if count > 0 then fill ctx ~par w frame data shape l u count;
  Value.Vdarr (Tensor.Nd.of_array shape data)

and exec_modarray ctx ~par w frame lb ub src =
  Atomic.incr ctx.wexecs.(w.B.w_id);
  let l, u = frame_of lb ub in
  let count = frame_size l u in
  note ctx count;
  let t = Value.to_tensor src in
  let shape = Tensor.Nd.shape t in
  if Array.length shape <> Array.length l then
    err "modarray rank does not match with-loop bounds";
  Array.iteri
    (fun d ext ->
      if l.(d) < 0 || u.(d) > ext then
        err "with-loop partition exceeds modarray shape")
    shape;
  (* Same full-cover reasoning as genarray: when the partition spans
     the whole source the copied cells are all overwritten. *)
  let size = Tensor.Nd.size t in
  let data =
    if count = size && count > 0 then full_buffer ctx ~par size
    else Array.copy t.Tensor.Nd.data
  in
  if count > 0 then fill ctx ~par w frame data shape l u count;
  Value.Vdarr (Tensor.Nd.of_array shape data)

and exec_fold ctx ~par w frame op lb ub neutral =
  Atomic.incr ctx.wexecs.(w.B.w_id);
  Atomic.incr ctx.fexecs.(w.B.w_id);
  let l, u = frame_of lb ub in
  let count = frame_size l u in
  note ctx count;
  let f = fold_fn op in
  let acc = ref (Value.to_float neutral) in
  let rank = Array.length l in
  (if count > 0 then
     match get_kernel ctx ~par w frame rank with
     | Some (k, entry) ->
       ctx.kfolds <- ctx.kfolds + 1;
       (match (ctx.exec, op) with
        | Some exec, (Fmax | Fmin) when count >= ctx.parallel_threshold ->
          (* Parallel reduction: each lane folds its box into a private
             slot, and the orchestrator combines the slots in ascending
             lane order after the barrier.  Only max/min take this
             path: they are exactly associative, commutative and
             idempotent in IEEE arithmetic (no rounding), so the
             result is bitwise-identical to the sequential walk no
             matter how the range is cut, and the neutral element
             seeding every lane slot is absorbed.  Sum/product would
             change the rounding order, so they keep the sequential
             walk and the bitwise pin against {!Eval}.  [get_kernel]
             already refused nested-parallel calls ([par]). *)
          let parts, box = lane_split exec l u in
          acc :=
            Parallel.Exec.parallel_reduce_lanes exec
              ~region:Parallel.Exec.Reduce ~lo:0 ~hi:parts ~init:!acc
              ~combine:f
              (fun ~acc:slots ~cell ~lane which ->
                let bl, bu = box which in
                slots.(cell) <-
                  fold_walk ctx k entry ~lane op bl bu slots.(cell))
        | _ -> acc := fold_walk ctx k entry ~lane:0 op l u !acc)
     | None ->
       let idx, bframe, stack = body_frame w frame rank in
       for flat = 0 to count - 1 do
         index_of_flat_into l u flat idx;
         acc :=
           f !acc
             (Value.to_float
                (run_code ctx ~par w.B.w_fun w.B.w_body bframe stack))
       done);
  Value.Vdbl !acc

and fill ctx ~par w frame data shape l u count =
  let rank = Array.length l in
  match get_kernel ctx ~par w frame rank with
  | Some (k, entry) -> kernel_fill ctx k entry data shape l u count
  | None -> generic_fill ctx ~par w frame data shape l u count

and generic_fill ctx ~par w frame data shape l u count =
  let strides = Tensor.Shape.strides shape in
  (* The sequential walk over the box [l, u), with its own frame. *)
  let walk ~par l u =
    let idx, bframe, stack = body_frame w frame (Array.length l) in
    for flat = 0 to frame_size l u - 1 do
      index_of_flat_into l u flat idx;
      let v = run_code ctx ~par w.B.w_fun w.B.w_body bframe stack in
      data.(offset_of idx strides) <- Value.to_float v
    done
  in
  match ctx.exec with
  | Some exec when (not par) && count >= ctx.parallel_threshold ->
    let parts, box = lane_split exec l u in
    Parallel.Exec.parallel_for_lanes exec ~lo:0 ~hi:parts
      (fun ~lane:_ which ->
        let bl, bu = box which in
        walk ~par:true bl bu)
  | _ -> walk ~par l u

let run_fun ctx name args =
  match lookup_fun ctx.bc.B.source name with
  | Some _ -> (
    match
      Overload.resolve ctx.bc.B.source name
        (List.map Eval.ty_of_value args)
    with
    | Ok fd ->
      ctx.taken <- [];
      let v = call_fn ctx ~par:false (func_index ctx fd) args in
      recycle ctx v;
      v
    | Error msg -> err msg)
  | None -> err ("no such function: " ^ name)
