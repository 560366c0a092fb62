type estimator = Reservoir | P2

(* The P² algorithm (Jain & Chlamtac 1985): one 5-marker structure per
   target quantile, updated in O(1) per observation with no stored
   samples.  The markers track the running estimate of the quantile and
   of four bracketing positions; heights move by parabolic (falling back
   to linear) interpolation as desired marker positions drift. *)
type p2m = {
  pq : float;  (* target quantile *)
  h : float array;  (* 5 marker heights *)
  np : float array;  (* actual marker positions, 1-based *)
  nd : float array;  (* desired marker positions *)
  dn : float array;  (* desired-position increments *)
}

let p2m_create q =
  {
    pq = q;
    h = Array.make 5 0.0;
    np = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
    nd = [| 1.0; 1.0 +. (2.0 *. q); 1.0 +. (4.0 *. q); 3.0 +. (2.0 *. q); 5.0 |];
    dn = [| 0.0; q /. 2.0; q; (1.0 +. q) /. 2.0; 1.0 |];
  }

let p2m_init m sorted5 =
  Array.blit sorted5 0 m.h 0 5;
  m.np.(0) <- 1.0;
  m.np.(1) <- 2.0;
  m.np.(2) <- 3.0;
  m.np.(3) <- 4.0;
  m.np.(4) <- 5.0;
  m.nd.(0) <- 1.0;
  m.nd.(1) <- 1.0 +. (2.0 *. m.pq);
  m.nd.(2) <- 1.0 +. (4.0 *. m.pq);
  m.nd.(3) <- 3.0 +. (2.0 *. m.pq);
  m.nd.(4) <- 5.0

let p2m_add m x =
  let k =
    if x < m.h.(0) then begin
      m.h.(0) <- x;
      0
    end
    else if x >= m.h.(4) then begin
      m.h.(4) <- x;
      3
    end
    else begin
      let k = ref 0 in
      for i = 1 to 3 do
        if x >= m.h.(i) then k := i
      done;
      !k
    end
  in
  for i = k + 1 to 4 do
    m.np.(i) <- m.np.(i) +. 1.0
  done;
  for i = 0 to 4 do
    m.nd.(i) <- m.nd.(i) +. m.dn.(i)
  done;
  for i = 1 to 3 do
    let d = m.nd.(i) -. m.np.(i) in
    if
      (d >= 1.0 && m.np.(i + 1) -. m.np.(i) > 1.0)
      || (d <= -1.0 && m.np.(i - 1) -. m.np.(i) < -1.0)
    then begin
      let s = if d >= 0.0 then 1.0 else -1.0 in
      let hi = m.h.(i) and hp = m.h.(i + 1) and hm = m.h.(i - 1) in
      let ni = m.np.(i) and np1 = m.np.(i + 1) and nm1 = m.np.(i - 1) in
      let parabolic =
        hi
        +. s /. (np1 -. nm1)
           *. (((ni -. nm1 +. s) *. (hp -. hi) /. (np1 -. ni))
              +. ((np1 -. ni -. s) *. (hi -. hm) /. (ni -. nm1)))
      in
      let next =
        if hm < parabolic && parabolic < hp then parabolic
        else if s > 0.0 then hi +. ((hp -. hi) /. (np1 -. ni))
        else hi -. ((hm -. hi) /. (nm1 -. ni))
      in
      m.h.(i) <- next;
      m.np.(i) <- ni +. s
    end
  done

(* In-place ascending sort of a float array: the stdlib's ternary heap
   sort specialised to floats.  It makes the same [Float.compare] calls
   as [Array.sort Float.compare], so it yields the same permutation
   (down to where [-0.0] and [0.0] land), but it reads the array
   unboxed and signals a leaf by returning -1 rather than raising, so
   a sort allocates nothing. *)
let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let sort_floats (a : float array) =
  let l = Array.length a in
  for i0 = ((l + 1) / 3) - 1 downto 0 do
    (* Trickle a.(i0) down to its place in the heap. *)
    let e = a.(i0) in
    let i = ref i0 and moving = ref true in
    while !moving do
      let j = maxson a l !i in
      if j >= 0 && Float.compare a.(j) e > 0 then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        moving := false
      end
    done
  done;
  for k = l - 1 downto 2 do
    (* Move the root to slot k, bubble the hole to a leaf, then trickle
       the displaced a.(k) up from there. *)
    let e = a.(k) in
    a.(k) <- a.(0);
    let i = ref 0 and j = ref (maxson a k 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a k !i
    done;
    let moving = ref true in
    while !moving do
      let father = (!i - 1) / 3 in
      if Float.compare a.(father) e < 0 then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          moving := false
        end
      end
      else begin
        a.(!i) <- e;
        moving := false
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* Marker targets: exactly the quantiles {!summary} reports. *)
let p2_targets = [| 0.50; 0.95; 0.99 |]

type store =
  | Res of { data : float array; mutable stored : int; rng : Rng.t }
  | Stream of { head : float array; mutable markers : p2m array }

(* Scalar moments live in a float array rather than mutable record
   fields: a record mixing [n : int] with mutable floats keeps the
   floats boxed, so every [add] would allocate three fresh boxes on the
   minor heap.  Float-array stores are unboxed, making [add] for the
   moment scalars allocation-free on the hot path. *)
type t = { mutable n : int; q : float array; store : store }

let q_mean = 0
and q_m2 = 1
and q_sum = 2
and q_mn = 3
and q_mx = 4

let create ?(estimator = Reservoir) ?(reservoir = 8192) ?(seed = 0x5747) () =
  let store =
    match estimator with
    | Reservoir ->
      Res { data = Array.make reservoir 0.0; stored = 0; rng = Rng.create seed }
    | P2 ->
      (* Markers materialize lazily once five observations arrive: most
         per-session accumulators in a churning swarm see a handful of
         samples, and the three 5-marker structures are ~100 words that
         would dominate short-lived sessions' allocation. *)
      Stream { head = Array.make 5 0.0; markers = [||] }
  in
  { n = 0; q = [| 0.0; 0.0; 0.0; infinity; neg_infinity |]; store }

let estimator_kind t = match t.store with Res _ -> Reservoir | Stream _ -> P2

let reservoir_capacity t =
  match t.store with Res r -> Array.length r.data | Stream _ -> 8

let add t x =
  t.n <- t.n + 1;
  let q = t.q in
  q.(q_sum) <- q.(q_sum) +. x;
  let delta = x -. q.(q_mean) in
  q.(q_mean) <- q.(q_mean) +. (delta /. float_of_int t.n);
  q.(q_m2) <- q.(q_m2) +. (delta *. (x -. q.(q_mean)));
  if x < q.(q_mn) then q.(q_mn) <- x;
  if x > q.(q_mx) then q.(q_mx) <- x;
  match t.store with
  | Res r ->
    let cap = Array.length r.data in
    if r.stored < cap then begin
      r.data.(r.stored) <- x;
      r.stored <- r.stored + 1
    end
    else
      (* Vitter's algorithm R keeps a uniform sample of the stream. *)
      let j = Rng.int r.rng t.n in
      if j < cap then r.data.(j) <- x
  | Stream s ->
    if t.n <= 5 then begin
      s.head.(t.n - 1) <- x;
      if t.n = 5 then begin
        let sorted = Array.copy s.head in
        sort_floats sorted;
        if s.markers = [||] then s.markers <- Array.map p2m_create p2_targets;
        Array.iter (fun m -> p2m_init m sorted) s.markers
      end
    end
    else
      (* Explicit loop: [Array.iter] with a closure capturing [x] would
         allocate on every single observation. *)
      let ms = s.markers in
      for i = 0 to Array.length ms - 1 do
        p2m_add (Array.unsafe_get ms i) x
      done

let count t = t.n
let total t = t.q.(q_sum)
let mean t = if t.n = 0 then nan else t.q.(q_mean)
let variance t = if t.n < 2 then nan else t.q.(q_m2) /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min_value t = if t.n = 0 then nan else t.q.(q_mn)
let max_value t = if t.n = 0 then nan else t.q.(q_mx)

(* Linear interpolation between the order statistics of an
   ascending-sorted, non-empty array. *)
let sorted_quantile xs q =
  let q = Float.max 0.0 (Float.min 1.0 q) in
  let pos = q *. float_of_int (Array.length xs - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then xs.(lo)
  else
    let w = pos -. float_of_int lo in
    (xs.(lo) *. (1.0 -. w)) +. (xs.(hi) *. w)

(* The retained samples in ascending order, in a fresh array.  Empty
   when the P² markers, not samples, carry the distribution. *)
let sorted_samples t =
  let xs =
    match t.store with
    | Res r -> Array.sub r.data 0 r.stored
    | Stream s -> if t.n <= 5 then Array.sub s.head 0 t.n else [||]
  in
  sort_floats xs;
  xs

(* Piecewise-linear through (0, min), the marker estimates, and (1, max).
   A running max keeps the curve monotone even if marker heights cross
   on an adversarial stream. *)
let marker_quantile t markers q =
  let mn = t.q.(q_mn) and mx = t.q.(q_mx) in
  let q = Float.max 0.0 (Float.min 1.0 q) in
  let last = Array.length markers in
  let x0 = ref 0.0 and y0 = ref mn in
  let result = ref mx and i = ref 0 in
  while !i <= last do
    let x1 = if !i = last then 1.0 else markers.(!i).pq in
    let y1 =
      if !i = last then mx else Float.max !y0 (Float.min mx markers.(!i).h.(2))
    in
    if q <= x1 then begin
      result :=
        if x1 -. !x0 <= 0.0 then y1
        else !y0 +. ((q -. !x0) /. (x1 -. !x0) *. (y1 -. !y0));
      i := last + 1
    end
    else begin
      x0 := x1;
      y0 := y1;
      incr i
    end
  done;
  !result

(* [q]-quantile of a non-empty [t] whose {!sorted_samples} are [sorted]. *)
let read_quantile t sorted q =
  match t.store with
  | Stream s when t.n > 5 -> marker_quantile t s.markers q
  | Res _ | Stream _ -> if Array.length sorted = 0 then 0.0 else sorted_quantile sorted q

let quantile t q = if t.n = 0 then 0.0 else read_quantile t (sorted_samples t) q

(* Deterministically re-feed one accumulator's distribution sketch into
   another.  Reservoirs replay their stored sample; P² sketches replay a
   bounded number of reconstructed quantile points, so merging stays O(1)
   in the source stream length (the moments are corrected exactly by the
   caller either way). *)
let feed_into t src =
  match src.store with
  | Res r -> Array.iter (add t) (Array.sub r.data 0 r.stored)
  | Stream s ->
    if src.n > 0 then
      if src.n <= 5 then Array.iter (add t) (Array.sub s.head 0 src.n)
      else begin
        let k = min src.n 64 in
        for j = 0 to k - 1 do
          add t (quantile src ((float_of_int j +. 0.5) /. float_of_int k))
        done
      end

let merge a b =
  let t =
    create ~estimator:(estimator_kind a) ~reservoir:(reservoir_capacity a) ()
  in
  feed_into t a;
  feed_into t b;
  (* Correct the exact moments, which the sketches would only approximate. *)
  t.n <- a.n + b.n;
  t.q.(q_sum) <- a.q.(q_sum) +. b.q.(q_sum);
  if t.n > 0 then begin
    let na = float_of_int a.n and nb = float_of_int b.n in
    let am = a.q.(q_mean) and bm = b.q.(q_mean) in
    let delta = bm -. am in
    t.q.(q_mean) <- ((na *. am) +. (nb *. bm)) /. (na +. nb);
    t.q.(q_m2) <-
      a.q.(q_m2) +. b.q.(q_m2) +. (delta *. delta *. na *. nb /. (na +. nb))
  end;
  t.q.(q_mn) <- Float.min a.q.(q_mn) b.q.(q_mn);
  t.q.(q_mx) <- Float.max a.q.(q_mx) b.q.(q_mx);
  t

let clear t =
  t.n <- 0;
  t.q.(q_mean) <- 0.0;
  t.q.(q_m2) <- 0.0;
  t.q.(q_sum) <- 0.0;
  t.q.(q_mn) <- infinity;
  t.q.(q_mx) <- neg_infinity;
  match t.store with
  | Res r -> r.stored <- 0
  | Stream _ ->
    (* The head buffer refills and the markers re-initialize once five
       fresh observations arrive; [n] gates every read until then. *)
    ()

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summarize (t : t) =
  if t.n = 0 then
    (* An empty accumulator has a defined (all-zero) summary rather than
       a NaN-riddled one, so downstream rendering and JSON stay sane. *)
    { n = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0;
      p50 = 0.0; p95 = 0.0; p99 = 0.0 }
  else
    (* One sorted copy serves all three quantiles. *)
    let xs = sorted_samples t in
    {
      n = t.n;
      mean = mean t;
      stddev = stddev t;
      min = min_value t;
      max = max_value t;
      p50 = read_quantile t xs 0.50;
      p95 = read_quantile t xs 0.95;
      p99 = read_quantile t xs 0.99;
    }

(* [caml_format_float] is the primitive [Printf] calls for [%.4g]: the
   same C format gives the same bytes, without the interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* [%d] of a count, digit by digit. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let nan_bits = Int64.bits_of_float Float.nan
let nan_text = format_float "%.4g" Float.nan

(* The last value [add_g4] sent to [format_float], and its text. *)
type memo = { mutable last : float; mutable text : string }

(* [%.4g] of [x].  An integral value below 10^4 prints as its digits,
   which is what C's [%g] makes of it (no exponent, trailing zeros and
   point removed; [-0.0] gives "-0"), and the NaN standard deviation of
   a single observation prints one constant.  Anything else goes to [format_float],
   unless it has the bits of the value it last went there with: a
   summary of a constant series repeats one value in six fields. *)
let add_g4 b memo x =
  if Float.is_integer x && Float.abs x < 1e4 then begin
    if Float.sign_bit x then Buffer.add_char b '-';
    add_digits b (int_of_float (Float.abs x))
  end
  else if Int64.equal (Int64.bits_of_float x) nan_bits then Buffer.add_string b nan_text
  else begin
    if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float memo.last)) then begin
      memo.last <- x;
      memo.text <- format_float "%.4g" x
    end;
    Buffer.add_string b memo.text
  end

let add_summary b s =
  let memo = { last = Float.nan; text = nan_text } in
  Buffer.add_string b "n=";
  if s.n >= 0 then add_digits b s.n else Buffer.add_string b (Int.to_string s.n);
  Buffer.add_string b " mean=";
  add_g4 b memo s.mean;
  Buffer.add_string b " sd=";
  add_g4 b memo s.stddev;
  Buffer.add_string b " min=";
  add_g4 b memo s.min;
  Buffer.add_string b " p50=";
  add_g4 b memo s.p50;
  Buffer.add_string b " p95=";
  add_g4 b memo s.p95;
  Buffer.add_string b " p99=";
  add_g4 b memo s.p99;
  Buffer.add_string b " max=";
  add_g4 b memo s.max
