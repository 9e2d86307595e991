module top_module (input [3:0] a, output [3:0] y)
    wire [3:0] t = a @@ 2;
    assign t = 4'q1 + ;
    always @(*) begin
        y = t ` 1
    end
endmodule
