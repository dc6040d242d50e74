//! One module per paper artifact (table/figure), so the module list
//! below is the experiment index. Each module exposes `run(&ExpArgs)`;
//! the `exp_*` binaries are thin wrappers and `exp_all` chains
//! everything (see README "Benchmarks").

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod memory;
pub mod table3;
pub mod table4;
