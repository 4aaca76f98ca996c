(* miniftp: the CrossFTP-server analogue (paper §4.4, Table 4).

   An FTP-ish server in MiniJava: one acceptor loop ([FtpServer.run]) that
   spawns a [RequestHandler] thread per session (exactly CrossFTP's
   structure), a virtual in-memory filesystem, an account table, and a
   command-object registry with virtual dispatch.

   Four versions, 1.05 through 1.08.  Every update adds or deletes fields,
   so none is applicable by a method-body-only system (paper: "simple
   method body updating support on its own would be insufficient").
   The 1.07 -> 1.08 update changes [RequestHandler.run], which is on stack
   for every live session: it applies only when the server is relatively
   idle, as in the paper. *)

let port = 2121

let base_version = "1.05"

let base_src =
  {|
class Config {
  static int port = 2121;
  static String banner = "miniftp ready";
}
class Log {
  static boolean verbose = false;
  static void info(String m) { if (verbose) { Sys.println("[ftp] " + m); } }
}
class Stats {
  static int sessions = 0;
  static int commands = 0;
  static int downloads = 0;
  static void session() { sessions = sessions + 1; }
  static void command() { commands = commands + 1; }
  static void download() { downloads = downloads + 1; }
}
class Accounts {
  static String[] names;
  static String[] passwords;
  static int n;
  static void init(int cap) { names = new String[cap]; passwords = new String[cap]; n = 0; }
  static void add(String u, String p) { names[n] = u; passwords[n] = p; n = n + 1; }
  static boolean check(String u, String p) {
    for (int i = 0; i < n; i = i + 1) {
      if (names[i].equals(u)) { return passwords[i].equals(p); }
    }
    return false;
  }
}
class VirtualFs {
  static String[] names;
  static String[] data;
  static int n;
  static void init(int cap) { names = new String[cap]; data = new String[cap]; n = 0; }
  static void put(String name, String content) {
    for (int i = 0; i < n; i = i + 1) {
      if (names[i].equals(name)) { data[i] = content; return; }
    }
    if (n >= names.length) { return; }
    names[n] = name;
    data[n] = content;
    n = n + 1;
  }
  static String read(String name) {
    for (int i = 0; i < n; i = i + 1) {
      if (names[i].equals(name)) { return data[i]; }
    }
    return null;
  }
  static String listing() {
    String out = "";
    for (int i = 0; i < n; i = i + 1) {
      if (i > 0) { out = out + " "; }
      out = out + names[i];
    }
    return out;
  }
}
class Session {
  int conn;
  String user;
  boolean authed;
  Session(int c) { conn = c; user = null; authed = false; }
}
class PathUtil {
  static String join(String dir, String name) {
    if (dir.length() == 0) { return name; }
    if (dir.endsWith("/")) { return dir + name; }
    return dir + "/" + name;
  }
  static String basename(String path) {
    int slash = path.indexOf("/");
    String rest = path;
    while (slash >= 0) {
      rest = rest.substring(slash + 1, rest.length());
      slash = rest.indexOf("/");
    }
    return rest;
  }
  static boolean sane(String name) {
    return !name.contains("..") && name.length() > 0;
  }
}
class Command {
  boolean handles(String verb) { return false; }
  String execute(Session s, String arg) { return "502 not implemented"; }
}
class UserCmd extends Command {
  boolean handles(String verb) { return verb.equals("USER"); }
  String execute(Session s, String arg) {
    s.user = arg;
    return "331 need password";
  }
}
class PassCmd extends Command {
  boolean handles(String verb) { return verb.equals("PASS"); }
  String execute(Session s, String arg) {
    if (s.user == null) { return "503 need USER first"; }
    if (Accounts.check(s.user, arg)) {
      s.authed = true;
      return "230 logged in";
    }
    return "530 bad login";
  }
}
class ListCmd extends Command {
  boolean handles(String verb) { return verb.equals("LIST"); }
  String execute(Session s, String arg) {
    if (!s.authed) { return "530 not logged in"; }
    return "150 " + VirtualFs.listing();
  }
}
class RetrCmd extends Command {
  boolean handles(String verb) { return verb.equals("RETR"); }
  String execute(Session s, String arg) {
    if (!s.authed) { return "530 not logged in"; }
    String content = VirtualFs.read(arg);
    if (content == null) { return "550 no such file"; }
    Stats.download();
    return "150 " + content;
  }
}
class StorCmd extends Command {
  boolean handles(String verb) { return verb.equals("STOR"); }
  String execute(Session s, String arg) {
    if (!s.authed) { return "530 not logged in"; }
    int sp = arg.indexOf(" ");
    if (sp < 0) { return "501 need name and content"; }
    VirtualFs.put(arg.substring(0, sp), arg.substring(sp + 1, arg.length()));
    return "226 stored";
  }
}
class QuitCmd extends Command {
  boolean handles(String verb) { return verb.equals("QUIT"); }
  String execute(Session s, String arg) { return "221 bye"; }
}
class CommandRegistry {
  static Command[] cmds;
  static void init() {
    cmds = new Command[6];
    cmds[0] = new UserCmd();
    cmds[1] = new PassCmd();
    cmds[2] = new ListCmd();
    cmds[3] = new RetrCmd();
    cmds[4] = new StorCmd();
    cmds[5] = new QuitCmd();
  }
  static Command find(String verb) {
    for (int i = 0; i < cmds.length; i = i + 1) {
      if (cmds[i].handles(verb)) { return cmds[i]; }
    }
    return null;
  }
}
class RequestHandler {
  Session session;
  RequestHandler(int conn) { session = new Session(conn); }
  void run() {
    Stats.session();
    Net.send(session.conn, "220 " + Config.banner);
    while (true) {
      String line = Net.recvLine(session.conn);
      if (line == null) { Net.close(session.conn); return; }
      Stats.command();
      String verb;
      String arg;
      int sp = line.indexOf(" ");
      if (sp < 0) { verb = line; arg = ""; }
      else { verb = line.substring(0, sp); arg = line.substring(sp + 1, line.length()); }
      Command c = CommandRegistry.find(verb);
      String resp;
      if (verb.equals("HLTH")) { resp = "200 healthy"; }
      else {
        if (c == null) { resp = "502 unknown command"; }
        else { resp = c.execute(session, arg); }
      }
      Net.send(session.conn, resp);
      if (resp.startsWith("221")) { Net.close(session.conn); return; }
    }
  }
}
class FtpServer {
  int listener;
  FtpServer() { listener = Net.listen(Config.port); }
  void run() {
    while (true) {
      int conn = Net.accept(listener);
      Thread.spawn(new RequestHandler(conn));
    }
  }
}
class Main {
  static void main() {
    Accounts.init(8);
    Accounts.add("anonymous", "guest");
    Accounts.add("admin", "ftp");
    VirtualFs.init(32);
    VirtualFs.put("motd.txt", "welcome to miniftp");
    VirtualFs.put("readme.txt", "mini ftp server for the jvolve experiments");
    CommandRegistry.init();
    Thread.spawn(new FtpServer());
  }
}
|}

let releases =
  [
    (* 1.06: SITE command class, upload accounting field *)
    ( "1.06",
      [
        ( {|class Stats {
  static int sessions = 0;
  static int commands = 0;
  static int downloads = 0;
  static void session() { sessions = sessions + 1; }
  static void command() { commands = commands + 1; }
  static void download() { downloads = downloads + 1; }
}|},
          {|class Stats {
  static int sessions = 0;
  static int commands = 0;
  static int downloads = 0;
  static int uploads = 0;
  static void session() { sessions = sessions + 1; }
  static void command() { commands = commands + 1; }
  static void download() { downloads = downloads + 1; }
  static void upload() { uploads = uploads + 1; }
}|}
        );
        ( {|class QuitCmd extends Command {|},
          {|class SiteCmd extends Command {
  boolean handles(String verb) { return verb.equals("SITE"); }
  String execute(Session s, String arg) {
    if (arg.equals("STATS")) {
      return "200 sessions=" + Stats.sessions + " commands=" + Stats.commands;
    }
    return "200 ok";
  }
}
class QuitCmd extends Command {|}
        );
        ( {|    cmds = new Command[6];
    cmds[0] = new UserCmd();
    cmds[1] = new PassCmd();
    cmds[2] = new ListCmd();
    cmds[3] = new RetrCmd();
    cmds[4] = new StorCmd();
    cmds[5] = new QuitCmd();|},
          {|    cmds = new Command[7];
    cmds[0] = new UserCmd();
    cmds[1] = new PassCmd();
    cmds[2] = new ListCmd();
    cmds[3] = new RetrCmd();
    cmds[4] = new StorCmd();
    cmds[5] = new QuitCmd();
    cmds[6] = new SiteCmd();|}
        );
        ( {|    VirtualFs.put(arg.substring(0, sp), arg.substring(sp + 1, arg.length()));
    return "226 stored";|},
          {|    VirtualFs.put(arg.substring(0, sp), arg.substring(sp + 1, arg.length()));
    Stats.upload();
    return "226 stored";|}
        );
      ] );
    (* 1.07: per-session working directory and byte accounting — fields on
       Session (referenced by the always-running RequestHandler.run, which
       is lifted by OSR) and many command-body changes *)
    ( "1.07",
      [
        ( {|class Session {
  int conn;
  String user;
  boolean authed;
  Session(int c) { conn = c; user = null; authed = false; }
}|},
          {|class Session {
  int conn;
  String user;
  boolean authed;
  String cwd;
  int bytesDown;
  int bytesUp;
  Session(int c) { conn = c; user = null; authed = false; cwd = ""; bytesDown = 0; bytesUp = 0; }
  String resolve(String name) {
    if (!PathUtil.sane(name)) { return name; }
    return PathUtil.join(cwd, name);
  }
}|}
        );
        ( {|class ListCmd extends Command {
  boolean handles(String verb) { return verb.equals("LIST"); }
  String execute(Session s, String arg) {
    if (!s.authed) { return "530 not logged in"; }
    return "150 " + VirtualFs.listing();
  }
}|},
          {|class CwdCmd extends Command {
  boolean handles(String verb) { return verb.equals("CWD"); }
  String execute(Session s, String arg) {
    if (!s.authed) { return "530 not logged in"; }
    s.cwd = arg;
    return "250 directory changed";
  }
}
class ListCmd extends Command {
  boolean handles(String verb) { return verb.equals("LIST"); }
  String execute(Session s, String arg) {
    if (!s.authed) { return "530 not logged in"; }
    return "150 " + VirtualFs.listing();
  }
}|}
        );
        ( {|    String content = VirtualFs.read(arg);
    if (content == null) { return "550 no such file"; }
    Stats.download();
    return "150 " + content;|},
          {|    String content = VirtualFs.read(s.resolve(arg));
    if (content == null) { content = VirtualFs.read(arg); }
    if (content == null) { return "550 no such file"; }
    Stats.download();
    s.bytesDown = s.bytesDown + content.length();
    return "150 " + content;|}
        );
        ( {|    VirtualFs.put(arg.substring(0, sp), arg.substring(sp + 1, arg.length()));
    Stats.upload();
    return "226 stored";|},
          {|    String name = s.resolve(arg.substring(0, sp));
    String content = arg.substring(sp + 1, arg.length());
    VirtualFs.put(name, content);
    Stats.upload();
    s.bytesUp = s.bytesUp + content.length();
    return "226 stored";|}
        );
        ( {|    cmds = new Command[7];
    cmds[0] = new UserCmd();
    cmds[1] = new PassCmd();
    cmds[2] = new ListCmd();
    cmds[3] = new RetrCmd();
    cmds[4] = new StorCmd();
    cmds[5] = new QuitCmd();
    cmds[6] = new SiteCmd();|},
          {|    cmds = new Command[8];
    cmds[0] = new UserCmd();
    cmds[1] = new PassCmd();
    cmds[2] = new ListCmd();
    cmds[3] = new RetrCmd();
    cmds[4] = new StorCmd();
    cmds[5] = new QuitCmd();
    cmds[6] = new SiteCmd();
    cmds[7] = new CwdCmd();|}
        );
      ] );
    (* 1.08: reworks the session loop itself (RequestHandler.run changes)
       and drops the per-session byte counters — only applicable when the
       server is idle *)
    ( "1.08",
      [
        ( {|  String cwd;
  int bytesDown;
  int bytesUp;
  Session(int c) { conn = c; user = null; authed = false; cwd = ""; bytesDown = 0; bytesUp = 0; }|},
          {|  String cwd;
  Session(int c) { conn = c; user = null; authed = false; cwd = ""; }|}
        );
        ( {|    String content = VirtualFs.read(s.resolve(arg));
    if (content == null) { content = VirtualFs.read(arg); }
    if (content == null) { return "550 no such file"; }
    Stats.download();
    s.bytesDown = s.bytesDown + content.length();
    return "150 " + content;|},
          {|    String content = VirtualFs.read(s.resolve(arg));
    if (content == null) { content = VirtualFs.read(arg); }
    if (content == null) { return "550 no such file"; }
    Stats.download();
    return "150 " + content;|}
        );
        ( {|    VirtualFs.put(name, content);
    Stats.upload();
    s.bytesUp = s.bytesUp + content.length();
    return "226 stored";|},
          {|    VirtualFs.put(name, content);
    Stats.upload();
    return "226 stored";|}
        );
        ( {|  void run() {
    Stats.session();
    Net.send(session.conn, "220 " + Config.banner);
    while (true) {
      String line = Net.recvLine(session.conn);
      if (line == null) { Net.close(session.conn); return; }
      Stats.command();|},
          {|  void run() {
    Stats.session();
    Net.send(session.conn, "220 " + Config.banner + " (" + Stats.sessions + ")");
    while (true) {
      String line = Net.recvLine(session.conn);
      if (line == null) { Net.close(session.conn); return; }
      if (line.length() == 0) { continue; }
      Stats.command();|}
        );
      ] );
  ]

let app : Patching.versioned =
  Patching.build ~app_name:"miniftp" ~base_version ~base_src ~releases

(* Health probe (fleet orchestration).  The probing client may see the
   "220" greeting banner first; the prober accepts any line passing
   [health_ok], so only the "200 healthy" reply satisfies it. *)
let health_probe = Common.hlth_probe
let health_ok = Common.prefix_ok "200"
