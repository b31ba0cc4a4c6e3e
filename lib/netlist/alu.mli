(** The 32-bit execution-stage ALU as a gate-level netlist.

    This is the circuit the whole study revolves around: its 32 output
    nets are the D-inputs of the EX-stage result flip-flops — the only
    timing endpoints that can fail under frequency over-scaling in the
    paper's case study (§2.1). The ALU instantiates one datapath unit per
    operation class, with operand isolation in front of each unit, and an
    AND-OR one-hot result mux behind them. Add and Sub share the
    adder/subtractor unit.

    In front of the units sits the {e operand bypass network}: the
    forwarding muxes (EX/MEM and WB results back into the operands) that
    every real in-order pipeline has. Its delay is data-independent — the
    operands traverse it every cycle — so it consumes a fixed fraction of
    the clock period for every operation class, which is what keeps the
    dynamic timing limits of all classes within a few tens of percent of
    the STA limit, as observed in the paper's case study.

    Gate unit tags (for sizing and reports): ["bypass"], ["iso"],
    ["addsub"], ["mul"], ["sll"], ["srl"], ["sra"], ["and"], ["or"],
    ["xor"], ["select"]. *)

open Sfi_util

val width : int
(** 32. *)

type t = private {
  circuit : Circuit.t;
  a : Circuit.net array;              (** operand A inputs, LSB first *)
  b : Circuit.net array;              (** operand B inputs, LSB first *)
  selects : (Op_class.t * Circuit.net) array;
      (** one-hot class select inputs (Add and Sub have distinct selects
          even though they share the adder unit) *)
  result : Circuit.net array;         (** the 32 endpoint nets (also POs) *)
  aux_low : Circuit.net array;
      (** forwarding buses and bypass selects: primary inputs held low
          during characterization (operands then flow straight through the
          bypass muxes) *)
}

val build : ?lib:Cell_lib.t -> unit -> t
(** Generates a fresh ALU netlist with nominal (pre-sizing) delays from
    [lib] (default {!Cell_lib.default}). *)

val drive : t -> Logic_sim.t -> Op_class.t -> U32.t -> U32.t -> unit
(** Sets operand and one-hot select inputs on a logic simulator for one
    operation (does not call [eval]). *)

val simulate : t -> Logic_sim.t -> Op_class.t -> U32.t -> U32.t -> U32.t
(** Functional evaluation: drives the inputs, evaluates, and reads back
    the 32-bit result. Must equal [Op_class.apply] for every class (the
    netlist-vs-specification equivalence checked by the test suite). *)
