//! The tree-walking reference interpreter over structured MIR.
//!
//! No workload runs on it: [`AsipMachine::run_interpreted`] keeps it as
//! the semantics the native engine is checked against, statement by
//! statement — same fuel burns, same charges, same errors, in the same
//! order.
//!
//! [`AsipMachine::run_interpreted`]: super::AsipMachine::run_interpreted

use super::{def_finish, trip_count, Env, Exec, SimError, SimVal};
use matic_isa::OpClass;
use matic_mir::{MirFunction, Stmt};

/// How a statement left the block it ran in.
pub(super) enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

impl Exec<'_> {
    pub(super) fn exec_block(
        &mut self,
        f: &MirFunction,
        stmts: &[Stmt],
        env: &mut Env,
    ) -> Result<Flow, SimError> {
        for s in stmts {
            match self.exec_stmt(f, s, env)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, f: &MirFunction, stmt: &Stmt, env: &mut Env) -> Result<Flow, SimError> {
        let stmt_span = stmt.span();
        self.burn(stmt_span)?;
        self.cur_span = stmt_span;
        match stmt {
            Stmt::Def { dst, rv, span } => {
                let val = self.eval_rvalue(f, env, *dst, rv, *span)?;
                def_finish(env, *dst, f.var_ty(*dst).shape.is_scalar(), val);
                Ok(Flow::Normal)
            }
            Stmt::Store {
                array,
                indices,
                value,
                span,
            } => {
                self.exec_store(f, env, *array, indices, *value, *span)?;
                Ok(Flow::Normal)
            }
            Stmt::CallMulti {
                dsts,
                func,
                args,
                user,
                span,
            } => {
                self.exec_call_multi(f, env, dsts, func, args, *user, *span)?;
                Ok(Flow::Normal)
            }
            Stmt::Effect { name, args, span } => {
                self.exec_effect(f, env, name, args, *span)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                self.charge(OpClass::Branch, 1);
                let c = self.truthy(f, env, *cond)?;
                if c {
                    self.exec_block(f, then_body, env)
                } else {
                    self.exec_block(f, else_body, env)
                }
            }
            Stmt::For {
                var,
                start,
                step,
                stop,
                body,
                ..
            } => {
                let (s, st, e) = self.range_of(f, env, [*start, *step, *stop], stmt_span)?;
                for k in 0..trip_count(s, st, e) {
                    self.burn(stmt_span)?;
                    // Body statements moved `cur_span`; the per-iteration
                    // control charges belong to the loop header line.
                    self.cur_span = stmt_span;
                    // Loop control: induction update + branch.
                    self.charge(OpClass::ScalarAlu, 1);
                    self.charge(OpClass::Branch, 1);
                    self.set(env, *var, SimVal::scalar(s + st * k as f64));
                    match self.exec_block(f, body, env)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Continue | Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While {
                cond_defs,
                cond,
                body,
                ..
            } => {
                loop {
                    self.burn(stmt_span)?;
                    self.exec_block(f, cond_defs, env)?;
                    self.cur_span = stmt_span;
                    self.charge(OpClass::Branch, 1);
                    if !self.truthy(f, env, *cond)? {
                        break;
                    }
                    match self.exec_block(f, body, env)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Continue | Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
            Stmt::Return(_) => Ok(Flow::Return),
            Stmt::VectorOp(vop) => {
                self.exec_vector_op(f, env, vop)?;
                Ok(Flow::Normal)
            }
        }
    }
}
