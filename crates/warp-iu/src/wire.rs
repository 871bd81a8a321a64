//! Wire codec impls for the IU program types persisted inside a
//! `CompiledModule` artifact, and for the [`IuOptions`] the cache key
//! hashes. Enum tags and field orders are on-disk format; changing
//! them requires a store schema-version bump.

use crate::codegen::IuOptions;
use crate::program::{EmitPlan, EmitSource, IuBlock, IuOp, IuProgram, IuReg, IuRegion};
use warp_common::{wire_enum, wire_newtype, wire_struct};

wire_struct!(IuOptions {
    registers,
    table_words,
    share_registers,
    strength_reduction,
});

wire_newtype!(IuReg);

wire_enum!(IuOp {
    0 => Init { reg, value },
    1 => AddImm { reg, imm },
});

wire_enum!(EmitSource {
    0 => Reg(reg),
    1 => RegOffset(reg, offset),
    2 => Table,
});

wire_struct!(EmitPlan { cycle, source });
wire_struct!(IuBlock { len, emits });

wire_enum!(IuRegion {
    0 => Block(block),
    1 => Loop { count, body, updates, unrolled_tail },
});

wire_struct!(IuProgram {
    name,
    regs_used,
    table,
    init,
    regions,
});

#[cfg(test)]
mod tests {
    use super::*;
    use warp_common::wire::{from_bytes, to_bytes};

    #[test]
    fn iu_program_round_trips() {
        let program = IuProgram {
            name: "conv".to_owned(),
            regs_used: 2,
            table: vec![0, 4, 8],
            init: vec![IuOp::Init {
                reg: IuReg(0),
                value: 3,
            }],
            regions: vec![IuRegion::Loop {
                count: 9,
                body: vec![IuRegion::Block(IuBlock {
                    len: 4,
                    emits: vec![
                        EmitPlan {
                            cycle: 0,
                            source: EmitSource::Reg(IuReg(0)),
                        },
                        EmitPlan {
                            cycle: 2,
                            source: EmitSource::RegOffset(IuReg(1), -2),
                        },
                        EmitPlan {
                            cycle: 3,
                            source: EmitSource::Table,
                        },
                    ],
                })],
                updates: vec![IuOp::AddImm {
                    reg: IuReg(0),
                    imm: 1,
                }],
                unrolled_tail: 1,
            }],
        };
        let back: IuProgram = from_bytes(&to_bytes(&program)).unwrap();
        assert_eq!(program, back);
    }
}
