open Mg_ndarray
module Clock = Mg_smp.Clock

type routines = {
  impl_name : string;
  resid : u:Ndarray.t -> v:Ndarray.t -> r:Ndarray.t -> a:float array -> unit;
  psinv : r:Ndarray.t -> u:Ndarray.t -> c:float array -> unit;
  rprj3 : fine:Ndarray.t -> coarse:Ndarray.t -> unit;
  interp : coarse:Ndarray.t -> fine:Ndarray.t -> unit;
}

let loop_span sp tag ~surface (g : Ndarray.t) =
  if Mg_obs.Span.active sp then begin
    let n = (Ndarray.shape g).(0) - 2 in
    let elements = if surface then 6 * n * n else n * n * n in
    Mg_obs.Span.stop
      ~attrs:[ ("elements", string_of_int elements); ("extent", string_of_int n) ]
      ~name:tag sp
  end

type state = { cls : Classes.t; u : Ndarray.t array; r : Ndarray.t array; v : Ndarray.t }

let setup (cls : Classes.t) =
  let lt = Classes.levels cls in
  let grid k =
    let m = (1 lsl k) + 2 in
    Ndarray.create [| m; m; m |]
  in
  let level_array () =
    Array.init (lt + 1) (fun k -> if k = 0 then Ndarray.create [| 1 |] else grid k)
  in
  { cls; u = level_array (); r = level_array (); v = Zran3.generate ~n:cls.Classes.nx }

let zero3 g = Ndarray.fill g 0.0

let mg3p rt st =
  let lt = Classes.levels st.cls in
  let lb = 1 in
  let a = Stencil.to_array Stencil.a in
  let c = Stencil.to_array (Classes.smoother_coeffs st.cls) in
  for k = lt downto lb + 1 do
    rt.rprj3 ~fine:st.r.(k) ~coarse:st.r.(k - 1)
  done;
  zero3 st.u.(lb);
  rt.psinv ~r:st.r.(lb) ~u:st.u.(lb) ~c;
  for k = lb + 1 to lt - 1 do
    zero3 st.u.(k);
    rt.interp ~coarse:st.u.(k - 1) ~fine:st.u.(k);
    rt.resid ~u:st.u.(k) ~v:st.r.(k) ~r:st.r.(k) ~a;
    rt.psinv ~r:st.r.(k) ~u:st.u.(k) ~c
  done;
  rt.interp ~coarse:st.u.(lt - 1) ~fine:st.u.(lt);
  rt.resid ~u:st.u.(lt) ~v:st.v ~r:st.r.(lt) ~a;
  rt.psinv ~r:st.r.(lt) ~u:st.u.(lt) ~c

let iterate rt st =
  let lt = Classes.levels st.cls in
  let a = Stencil.to_array Stencil.a in
  rt.resid ~u:st.u.(lt) ~v:st.v ~r:st.r.(lt) ~a;
  for _ = 1 to st.cls.Classes.nit do
    mg3p rt st;
    rt.resid ~u:st.u.(lt) ~v:st.v ~r:st.r.(lt) ~a
  done

let final_norm st =
  let lt = Classes.levels st.cls in
  Verify.norm2u3 st.r.(lt) ~n:st.cls.Classes.nx

(* [iterate], but recording the residual L2 norm after each
   iteration's trailing resid — the golden-vector tests freeze these
   per-iteration norms bitwise. *)
let residual_norms rt cls =
  let st = setup cls in
  let lt = Classes.levels st.cls in
  let a = Stencil.to_array Stencil.a in
  rt.resid ~u:st.u.(lt) ~v:st.v ~r:st.r.(lt) ~a;
  let nit = st.cls.Classes.nit in
  let norms = Array.make nit 0.0 in
  for i = 0 to nit - 1 do
    mg3p rt st;
    rt.resid ~u:st.u.(lt) ~v:st.v ~r:st.r.(lt) ~a;
    norms.(i) <- fst (Verify.norm2u3 st.r.(lt) ~n:st.cls.Classes.nx)
  done;
  norms

let run rt cls =
  let st = setup cls in
  let t0 = Clock.now () in
  iterate rt st;
  let dt = Clock.now () -. t0 in
  let rnm2, _ = final_norm st in
  (rnm2, dt)
