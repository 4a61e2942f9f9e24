package transport

// Serve is the accept loop every daemon runs: it accepts on l until l
// closes, handing each connection to handle on a service process of its own
// named name. It returns when Accept fails, which a daemon's Close causes.
func Serve(env Env, l Listener, name string, handle func(Env, Conn)) {
	for {
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		env.SpawnService(name, func(e Env) { handle(e, c) })
	}
}

// Bound holds the listeners a daemon's Serve has bound. Daemons embed it for
// their Close and Addr.
type Bound struct {
	ls []Listener
}

// Hold records the listeners Serve bound, replacing any held before. Addr
// reports the first.
func (b *Bound) Hold(ls ...Listener) { b.ls = ls }

// Addr returns the first held listener's "host:port"; Serve must have bound
// it.
func (b *Bound) Addr() string { return b.ls[0].Addr() }

// Close unbinds every held listener, which ends the daemon's accept loops.
// Before Serve has bound any it does nothing.
func (b *Bound) Close(env Env) {
	for _, l := range b.ls {
		_ = l.Close(env)
	}
}
