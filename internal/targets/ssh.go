package targets

import (
	"encoding/binary"
	"strings"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// opensshServer models sshd's pre-auth surface: the version exchange and
// the binary packet layer with KEXINIT negotiation. ProFuzzBench fuzzes
// sshd pre-auth; coverage hides behind the version banner and message-type
// dispatch. No seeded crash (Table 1 lists none for openssh).
type opensshServer struct {
	Phase   guest.Table[int] // 0 banner, 1 kex, 2 keys, 3 auth
	Kexed   int
	AuthTry guest.Table[int]
}

const sshNS = 10

// SSH message numbers (subset).
const (
	sshMsgDisconnect  = 1
	sshMsgIgnore      = 2
	sshMsgDebug       = 4
	sshMsgServiceReq  = 5
	sshMsgKexinit     = 20
	sshMsgNewkeys     = 21
	sshMsgKexdhInit   = 30
	sshMsgUserauthReq = 50
)

func (t *opensshServer) Name() string        { return "openssh" }
func (t *opensshServer) Ports() []guest.Port { return []guest.Port{{Proto: guest.TCP, Num: 22}} }

func (t *opensshServer) Init(env *guest.Env) error {
	// Host key "generation" is the expensive part of sshd startup.
	env.Work(3 * time.Millisecond)
	return env.FS().WriteFile("/etc/ssh/host_key", []byte("ed25519-private-key-material"))
}

func (t *opensshServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(sshNS, 1))
	t.Phase.Set(c.ID, 0)
	env.Send(c, []byte("SSH-2.0-OpenSSH_9.7\r\n"))
}

func (t *opensshServer) OnDisconnect(env *guest.Env, c *guest.Conn) {
	t.Phase.Delete(c.ID)
	t.AuthTry.Delete(c.ID)
}

func (t *opensshServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(60 * time.Microsecond)
	phase := t.Phase.Get(c.ID)

	if phase == 0 {
		// Expect the client version banner.
		s := string(data)
		switch {
		case strings.HasPrefix(s, "SSH-2.0-"):
			env.Cov(loc(sshNS, 2))
			covClass(env, sshNS, 3, len(s))
			t.Phase.Set(c.ID, 1)
		case strings.HasPrefix(s, "SSH-1"):
			env.Cov(loc(sshNS, 4)) // protocol 1 rejection
			env.Send(c, []byte("Protocol major versions differ.\r\n"))
		default:
			env.Cov(loc(sshNS, 5)) // junk before banner
		}
		return
	}

	// Binary packet layer: u32 length | u8 padlen | u8 msgtype | ...
	if len(data) < 6 {
		env.Cov(loc(sshNS, 6))
		return
	}
	pktLen := binary.BigEndian.Uint32(data)
	padLen := data[4]
	msg := data[5]
	if pktLen > 35000 {
		env.Cov(loc(sshNS, 7)) // oversized packet: disconnect path
		env.Send(c, []byte{0, 0, 0, 1, 0, sshMsgDisconnect})
		return
	}
	if int(padLen) >= len(data) {
		env.Cov(loc(sshNS, 8)) // padding longer than packet
		return
	}
	covByte(env, sshNS, 9, msg)

	switch msg {
	case sshMsgKexinit:
		env.Cov(loc(sshNS, 10))
		// Parse algorithm name-lists: comma-separated strings.
		payload := string(data[6:])
		for ai, alg := range []string{"curve25519", "ecdh-sha2", "diffie-hellman",
			"ssh-ed25519", "rsa-sha2", "aes128-gcm", "aes256-ctr", "chacha20",
			"hmac-sha2", "none", "zlib"} {
			if strings.Contains(payload, alg) {
				covToken(env, sshNS, 11, ai)
			}
		}
		t.Phase.Set(c.ID, 1)
		env.Send(c, []byte{0, 0, 0, 1, 0, sshMsgKexinit})
	case sshMsgKexdhInit:
		if phase < 1 {
			env.Cov(loc(sshNS, 12))
			return
		}
		env.Cov(loc(sshNS, 13))
		covClass(env, sshNS, 14, len(data)-6) // e-value size classes
		t.Kexed++
		t.Phase.Set(c.ID, 2)
		env.Send(c, []byte{0, 0, 0, 1, 0, 31}) // KEXDH_REPLY
	case sshMsgNewkeys:
		if phase < 2 {
			env.Cov(loc(sshNS, 15))
			return
		}
		env.Cov(loc(sshNS, 16))
		t.Phase.Set(c.ID, 3)
		env.Send(c, []byte{0, 0, 0, 1, 0, sshMsgNewkeys})
	case sshMsgServiceReq:
		if phase < 3 {
			env.Cov(loc(sshNS, 17)) // service before keys
			return
		}
		env.Cov(loc(sshNS, 18))
		if strings.Contains(string(data[6:]), "ssh-userauth") {
			env.Cov(loc(sshNS, 19))
			env.Send(c, []byte{0, 0, 0, 1, 0, 6}) // SERVICE_ACCEPT
		}
	case sshMsgUserauthReq:
		if phase < 3 {
			env.Cov(loc(sshNS, 20))
			return
		}
		tries := t.AuthTry.Add(c.ID, 1)
		covClass(env, sshNS, 21, tries)
		if tries > 6 {
			env.Cov(loc(sshNS, 22)) // MaxAuthTries exceeded
			env.Send(c, []byte{0, 0, 0, 1, 0, sshMsgDisconnect})
			return
		}
		for mi, m := range []string{"none", "password", "publickey", "keyboard-interactive"} {
			if strings.Contains(string(data[6:]), m) {
				covToken(env, sshNS, 23, mi)
			}
		}
		env.Send(c, []byte{0, 0, 0, 1, 0, 51}) // USERAUTH_FAILURE
	case sshMsgIgnore, sshMsgDebug:
		env.Cov(loc(sshNS, 24))
	case sshMsgDisconnect:
		env.Cov(loc(sshNS, 25))
		t.Phase.Set(c.ID, 0)
	default:
		env.Cov(loc(sshNS, 26)) // unimplemented: send UNIMPLEMENTED
		env.Send(c, []byte{0, 0, 0, 1, 0, 3})
	}
}

func (t *opensshServer) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.Phase)
	w.IntTable(&t.AuthTry)
	w.Int(t.Kexed)
}

func (t *opensshServer) LoadState(r *guest.StateReader) {
	r.IntTable(&t.Phase)
	r.IntTable(&t.AuthTry)
	t.Kexed = r.Int()
}

// sshPacket frames an SSH binary packet.
func sshPacket(msg byte, payload string) []byte {
	b := make([]byte, 6+len(payload))
	binary.BigEndian.PutUint32(b, uint32(2+len(payload)))
	b[4] = 0
	b[5] = msg
	copy(b[6:], payload)
	return b
}

func init() {
	port := guest.Port{Proto: guest.TCP, Num: 22}
	Register(&Info{
		Name: "openssh",
		Port: port,
		New:  func() guest.Target { return &opensshServer{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			return []*spec.Input{
				seedSession(s, port,
					"SSH-2.0-OpenSSH_9.7",
					string(sshPacket(sshMsgKexinit, "curve25519,ssh-ed25519,aes128-gcm,hmac-sha2")),
					string(sshPacket(sshMsgKexdhInit, "e-value-bytes-here")),
					string(sshPacket(sshMsgNewkeys, "")),
					string(sshPacket(sshMsgServiceReq, "ssh-userauth")),
					string(sshPacket(sshMsgUserauthReq, "root password x"))),
			}
		},
		Dict: [][]byte{
			[]byte("SSH-2.0-OpenSSH_9.7"), sshPacket(sshMsgKexinit, "curve25519"),
			sshPacket(sshMsgKexdhInit, "e"), sshPacket(sshMsgNewkeys, ""),
			sshPacket(sshMsgServiceReq, "ssh-userauth"),
			sshPacket(sshMsgUserauthReq, "publickey"),
			[]byte("diffie-hellman"), []byte("chacha20"), []byte("zlib"),
		},
		Startup: 160 * time.Millisecond, Cleanup: 60 * time.Millisecond,
		ServerWait:   120 * time.Millisecond,
		DesockCompat: true,
	})
}
